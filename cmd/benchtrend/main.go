// Command benchtrend compares two benchjson reports and fails when
// performance regressed: it is the CI gate that turns the checked-in
// BENCH_PR*.json baselines into an enforced trend rather than a
// decorative artifact.
//
// Usage:
//
//	go run ./cmd/benchtrend [-max-regress 0.25] [-filter REGEX] old.json new.json
//
// Benchmarks are matched by name; a name with several rows (a
// `go test -count N` run) is represented by its fastest row, so the
// gate compares min-of-N. For every benchmark present in both
// reports, the new ns/op must not exceed old ns/op × (1 + max-regress)
// — the default 25% headroom absorbs machine noise while catching
// order-of-magnitude regressions (an accidentally disabled incremental
// path, a new allocation in the hot loop). A benchmark present in the
// baseline but missing from the new report also fails: silently
// dropping a benchmark is how trends die. New benchmarks absent from
// the baseline pass — that is how the trend grows. -filter restricts
// the comparison to matching names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
)

// Benchmark mirrors cmd/benchjson's record.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BPerOp     float64            `json:"b_per_op"`
	AllocsPer  float64            `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report mirrors cmd/benchjson's document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrend:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtrend", flag.ContinueOnError)
	fs.SetOutput(stdout)
	maxRegress := fs.Float64("max-regress", 0.25, "maximum allowed ns/op growth as a fraction (0.25 = +25%)")
	filter := fs.String("filter", "", "only compare benchmarks whose name matches this regexp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two arguments: old.json new.json (got %d)", fs.NArg())
	}
	if *maxRegress < 0 {
		return fmt.Errorf("-max-regress must be non-negative (got %v)", *maxRegress)
	}
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			return fmt.Errorf("bad -filter: %v", err)
		}
	}
	oldRep, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	fresh := make(map[string]Benchmark, len(newRep.Benchmarks))
	for _, b := range fastest(newRep.Benchmarks) {
		fresh[b.Name] = b
	}
	var failures []string
	compared := 0
	for _, old := range fastest(oldRep.Benchmarks) {
		if re != nil && !re.MatchString(old.Name) {
			continue
		}
		nb, ok := fresh[old.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline, missing from new report", old.Name))
			continue
		}
		compared++
		if old.NsPerOp <= 0 {
			continue // a zero baseline cannot regress meaningfully
		}
		ratio := nb.NsPerOp / old.NsPerOp
		limit := 1 + *maxRegress
		status := "ok"
		if ratio > limit {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx > %.2fx allowed)",
				old.Name, old.NsPerOp, nb.NsPerOp, ratio, limit))
		}
		fmt.Fprintf(stdout, "%-60s %12.0f %12.0f  %5.2fx  %s\n", old.Name, old.NsPerOp, nb.NsPerOp, ratio, status)
	}
	if compared == 0 && len(failures) == 0 {
		return fmt.Errorf("no benchmarks compared (empty baseline or over-narrow -filter)")
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed past the %.0f%% budget", len(failures), *maxRegress*100)
	}
	fmt.Fprintf(stdout, "benchtrend: %d benchmark(s) within the %.0f%% budget\n", compared, *maxRegress*100)
	return nil
}

// fastest reduces a report to one row per benchmark name, in
// first-appearance order: the row with the lowest ns/op. A report from
// `go test -count N` holds N rows per name, and the gate compares
// best-of-N, which measures capability rather than scheduler jitter.
func fastest(rows []Benchmark) []Benchmark {
	index := make(map[string]int, len(rows))
	var out []Benchmark
	for _, b := range rows {
		if i, ok := index[b.Name]; !ok {
			index[b.Name] = len(out)
			out = append(out, b)
		} else if b.NsPerOp < out[i].NsPerOp {
			out[i] = b
		}
	}
	return out
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}
