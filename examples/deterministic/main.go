// Deterministic: Section IV's hierarchically bounded enumeration with
// enhanced shape functions. The example shows (1) why enumeration must
// be bounded by hierarchy — the number of B*-tree placements explodes
// to the paper's 57,657,600 at just 8 modules — and (2) the esf and
// rsf registry engines on Table I benchmarks, ESF versus RSF.
//
//	go run ./examples/deterministic
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bstar"
	"repro/placer"
)

func main() {
	// Part 1: the combinatorial wall motivating hierarchical bounding.
	fmt.Println("B*-tree placements of n modules (n! · Catalan(n)):")
	for _, n := range []int{2, 4, 6, 8} {
		fmt.Printf("  n=%d: %v\n", n, bstar.CountPlacements(n))
	}

	// Part 2: the smaller Table I circuits through placer.Solve: ESF vs
	// RSF on each benchmark's canonical hierarchy.
	fmt.Println("\ndeterministic placement, ESF vs RSF:")
	for _, name := range []string{"comparator_v2", "miller_v2", "folded_casc"} {
		p, err := placer.Benchmark(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, algorithm := range []string{placer.RSF, placer.ESF} {
			res, err := placer.Solve(context.Background(), p, placer.WithAlgorithm(algorithm))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-14s %s: usage %.2f%%  (%s, legal=%v)\n",
				name, algorithm, 100*res.AreaUsage, res.Runtime.Round(1e6), res.Legal)
		}
	}
	fmt.Println("\nESF interleaves sub-placements (Fig. 7's w_imp), so its area")
	fmt.Println("usage is never worse than RSF and improves as circuits grow.")
}
