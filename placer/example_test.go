package placer_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/placer"
)

// The quickstart: build a Problem (here from a built-in benchmark),
// solve it with the default algorithm, and read the result.
func ExampleSolve() {
	p, err := placer.Benchmark("miller")
	if err != nil {
		panic(err)
	}
	res, err := placer.Solve(context.Background(), p, placer.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s placed %d modules: legal=%v, %d violations\n",
		res.Algorithm, len(res.Placement), res.Legal, len(res.Violations))
	for _, term := range res.Breakdown {
		fmt.Printf("  %s contributes %.4g\n", term.Name, term.Cost)
	}
	// Output:
	// seqpair placed 9 modules: legal=true, 0 violations
	//   area contributes 9360
	//   hpwl contributes 555
}

// Portfolio mode races the portfolio-eligible flat engines and keeps
// the winner under a deterministic feasibility-first ranking.
func ExampleSolve_portfolio() {
	p, err := placer.Benchmark("miller")
	if err != nil {
		panic(err)
	}
	res, err := placer.Solve(context.Background(), p,
		placer.WithPortfolio(), placer.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("raced %v; %s won with a legal=%v placement\n",
		placer.PortfolioAlgorithms(), res.Algorithm, res.Legal)
	// Output:
	// raced [seqpair bstar]; seqpair won with a legal=true placement
}

// WithProgress streams one snapshot per completed annealing stage
// while the solve runs; WithDeadline bounds the wall-clock.
func ExampleSolve_progress() {
	p, err := placer.Benchmark("miller")
	if err != nil {
		panic(err)
	}
	var stages atomic.Int64
	res, err := placer.Solve(context.Background(), p,
		placer.WithAlgorithm(placer.HBStar),
		placer.WithSeed(1),
		placer.WithDeadline(time.Now().Add(time.Minute)),
		placer.WithProgress(func(pr placer.Progress) {
			stages.Add(1) // called concurrently from every chain
		}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("streamed every stage: %v\n", int(stages.Load()) == res.Stages)
	fmt.Printf("finished without hitting the deadline: %v\n", !res.Cancelled)
	// Output:
	// streamed every stage: true
	// finished without hitting the deadline: true
}
