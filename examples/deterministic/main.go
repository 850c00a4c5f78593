// Deterministic: Section IV's hierarchically bounded enumeration with
// enhanced shape functions. The example shows (1) why enumeration must
// be bounded by hierarchy — the number of B*-tree placements explodes
// to the paper's 57,657,600 at just 8 modules — and (2) the full
// deterministic placer on Table I benchmarks, ESF versus RSF.
//
//	go run ./examples/deterministic
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bstar"
	"repro/internal/circuits"
	"repro/internal/core"
)

func main() {
	// Part 1: the combinatorial wall motivating hierarchical bounding.
	fmt.Println("B*-tree placements of n modules (n! · Catalan(n)):")
	for _, n := range []int{2, 4, 6, 8} {
		fmt.Printf("  n=%d: %v\n", n, bstar.CountPlacements(n))
	}

	// Part 2: Table I on the smaller circuits: ESF vs RSF.
	fmt.Println("\ndeterministic placement, ESF vs RSF:")
	for _, name := range []string{"comparator_v2", "miller_v2", "folded_casc"} {
		bench, err := circuits.TableIBench(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range []struct {
			enhanced bool
			label    string
		}{{false, "RSF"}, {true, "ESF"}} {
			start := time.Now()
			res, err := core.PlaceDeterministic(bench, r.enhanced)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-14s %s: usage %.2f%%  (%s, legal=%v)\n",
				name, r.label, 100*res.Placement.AreaUsage(), time.Since(start).Round(time.Millisecond), res.Placement.Legal())
		}
	}
	fmt.Println("\nESF interleaves sub-placements (Fig. 7's w_imp), so its area")
	fmt.Println("usage is never worse than RSF and improves as circuits grow.")
}
