// Fixedoutline: place the Miller op amp under a fixed-outline
// objective (Adya/Markov style) and compare against the unconstrained
// run. The composable cost model adds a quadratic penalty on the
// bounding box exceeding the target outline, steering the annealer
// toward placements that fit; the result reports either a fitting
// bounding box or the remaining violation penalty.
//
//	go run ./examples/fixedoutline
package main

import (
	"context"
	"fmt"
	"log"

	"repro/placer"
)

func main() {
	ctx := context.Background()
	opts := []placer.Option{
		placer.WithAlgorithm(placer.SeqPair),
		placer.WithSeed(3),
		placer.WithSchedule(placer.Schedule{MovesPerStage: 150, MaxStages: 200, StallStages: 40}),
	}
	p, err := placer.Benchmark("miller")
	if err != nil {
		log.Fatal(err)
	}

	// Unconstrained baseline: whatever shape minimizes area + HPWL.
	free, err := placer.Solve(ctx, p, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unconstrained: %dx%d bounding box (aspect %.2f)\n",
		free.BBoxW, free.BBoxH, float64(free.BBoxW)/float64(free.BBoxH))

	// Fixed outline: ask for a wide, short strip the baseline does not
	// naturally produce.
	ow, oh := free.BBoxW+free.BBoxW/2, free.BBoxH-free.BBoxH/5
	p.Objective.OutlineW, p.Objective.OutlineH = ow, oh
	fit, err := placer.Solve(ctx, p, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed outline %dx%d: placed %dx%d\n", ow, oh, fit.BBoxW, fit.BBoxH)
	if exW, exH := max(0, fit.BBoxW-ow), max(0, fit.BBoxH-oh); exW == 0 && exH == 0 {
		fmt.Println("  bounding box respects the outline")
	} else {
		for _, tc := range fit.Breakdown {
			if tc.Name == "outline" {
				fmt.Printf("  violated by %dx%d, penalty %.4g\n", exW, exH, tc.Cost)
			}
		}
	}
	if len(fit.Violations) == 0 {
		fmt.Println("  symmetry constraints: all satisfied")
	}
}
