package placer

import (
	"fmt"
	"sort"

	"repro/internal/circuits"
)

// Benchmark returns one of the paper's built-in benchmark circuits as
// a canonical Problem (flat view plus design hierarchy): "miller"
// (the Miller op amp of Fig. 6), "folded" (the folded-cascode op
// amp), or one of the Table I names (miller_v2, comparator_v2,
// folded_casc, buffer, biasynth, lnamixbias). It is the quickest way
// to a non-trivial Problem for examples and experiments; real
// consumers build Problem values directly or decode them from the
// wire format.
func Benchmark(name string) (*Problem, error) {
	b, err := circuits.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("placer: unknown benchmark %q (have %v)", name, BenchmarkNames())
	}
	return fromBench(b)
}

// BenchmarkNames lists the names Benchmark accepts, sorted.
func BenchmarkNames() []string {
	names := circuits.Names()
	sort.Strings(names)
	return names
}
