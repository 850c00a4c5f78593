// Quickstart: place the paper's Miller op amp (Fig. 6) through the
// public placer API — the hierarchical HB*-tree engine selected from
// the algorithm registry — and print the layout and its per-term cost
// breakdown.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/placer"
)

func main() {
	// The benchmark ships with its published hierarchy: CORE = {DP,
	// CM1, CM2}, plus output device N8 and compensation cap C. Any
	// placer.Problem works here; Benchmark is just the fastest way to
	// a real one.
	prob, err := placer.Benchmark("miller")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %d modules, %d symmetry groups, hierarchy=%v\n",
		prob.Name, len(prob.Modules), len(prob.Symmetry), prob.Hierarchy != nil)

	res, err := placer.Solve(context.Background(), prob,
		placer.WithAlgorithm(placer.HBStar),
		placer.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("placed by %s in %s: %dx%d bounding box, area usage %.1f%%, legal=%v\n",
		res.Algorithm, res.Runtime.Round(1e6), res.BBoxW, res.BBoxH, 100*res.AreaUsage, res.Legal)
	for _, term := range res.Breakdown {
		fmt.Printf("  cost %-14s %.4g\n", term.Name+":", term.Cost)
	}
	for _, m := range res.Placement {
		fmt.Printf("  %-3s at (%4d,%4d) size %3dx%-3d\n", m.Name, m.X, m.Y, m.W, m.H)
	}
	if len(res.Violations) == 0 {
		fmt.Println("all layout constraints satisfied (DP and CM1 mirrored, CORE connected)")
	} else {
		for _, v := range res.Violations {
			fmt.Println("violation:", v)
		}
	}

	// The same registry also answers "what can I run?" — the CLI's
	// -algorithms flag and the daemon's GET /v1/algorithms serve it.
	fmt.Print("registry:")
	for _, info := range placer.Algorithms() {
		fmt.Printf(" %s(%s)", info.Name, info.Kind)
	}
	fmt.Println()
}
