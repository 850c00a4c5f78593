package placer_test

import (
	"strings"
	"testing"

	"repro/placer"
)

// fastSchedule keeps the stochastic engines cheap in tests.
var fastSchedule = placer.Schedule{MovesPerStage: 30, MaxStages: 15, StallStages: 10}

// TestGeneticEnginesSolve: the memetic registry entry solves a
// symmetry-constrained benchmark end to end — a legal placement over
// every module with zero violations (symmetry holds by construction
// through the S-F encoding), deterministic for a fixed seed.
func TestGeneticEnginesSolve(t *testing.T) {
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	algo := placer.GeneticSeqPair
	t.Run(algo, func(t *testing.T) {
		res, err := placer.Solve(t.Context(), p,
			placer.WithAlgorithm(algo), placer.WithSeed(3),
			placer.WithSchedule(fastSchedule))
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != algo {
			t.Fatalf("algorithm %q, want %q", res.Algorithm, algo)
		}
		if len(res.Placement) != len(p.Modules) {
			t.Fatalf("placed %d modules, want %d", len(res.Placement), len(p.Modules))
		}
		if res.Stages == 0 || res.Moves == 0 {
			t.Fatalf("no search work reported: stages=%d moves=%d", res.Stages, res.Moves)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("genetic seqpair violates constraints: %v", res.Violations)
		}
		if !res.Legal {
			t.Fatal("genetic seqpair placement overlaps")
		}
		again, err := placer.Solve(t.Context(), p,
			placer.WithAlgorithm(algo), placer.WithSeed(3),
			placer.WithSchedule(fastSchedule))
		if err != nil {
			t.Fatal(err)
		}
		if again.Cost != res.Cost {
			t.Fatalf("costs differ across identical runs: %v vs %v", again.Cost, res.Cost)
		}
	})
}

// TestGeneticEnginesListed: the memetic engine appears in the registry
// listing (and therefore in analogplace -algorithms and GET
// /v1/algorithms, which render this listing) and are never raced by
// the portfolio.
func TestGeneticEnginesListed(t *testing.T) {
	found := map[string]bool{}
	for _, info := range placer.Algorithms() {
		found[info.Name] = true
		if strings.HasPrefix(info.Name, "genetic:") && info.Portfolio {
			t.Errorf("%s must not be portfolio-eligible", info.Name)
		}
	}
	if !found[placer.GeneticSeqPair] {
		t.Fatalf("genetic engine missing from registry listing: %v", found)
	}
}
