package placer_test

import (
	"strings"
	"testing"

	"repro/placer"
)

// fastSchedule keeps the stochastic engines cheap in tests.
var fastSchedule = placer.Schedule{MovesPerStage: 30, MaxStages: 15, StallStages: 10}

// TestGeneticEnginesSolve: the memetic registry entries solve a
// symmetry-constrained benchmark end to end — a legal placement over
// every module, and for the sequence-pair variant zero violations
// (symmetry holds by construction through the S-F encoding).
func TestGeneticEnginesSolve(t *testing.T) {
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{placer.GeneticSeqPair, placer.GeneticAbsolute} {
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
			if algo == placer.GeneticSeqPair {
				if len(res.Violations) != 0 {
					t.Fatalf("genetic seqpair violates constraints: %v", res.Violations)
				}
				if !res.Legal {
					t.Fatal("genetic seqpair placement overlaps")
				}
			}
			// Deterministic for a fixed seed.
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
}

// TestGeneticEnginesListed: the memetic engines appear in the registry
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
	if !found[placer.GeneticSeqPair] || !found[placer.GeneticAbsolute] {
		t.Fatalf("genetic engines missing from registry listing: %v", found)
	}
}
