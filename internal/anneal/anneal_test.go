package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// quadratic is a toy search space: integers with cost (x - 37)², plus
// a rugged term to give SA hills to climb. It runs both protocols:
// in place (Perturb/Snapshot/Restore) for the annealers, and cloning
// (Neighbor) for the evolutionary engine, with the same ±3 step.
type quadratic struct {
	x, prev int
	rugged  bool
}

func (q *quadratic) Cost() float64 {
	d := float64(q.x - 37)
	c := d * d
	if q.rugged {
		c += 40 * math.Abs(math.Sin(float64(q.x)))
	}
	return c
}

func (q *quadratic) Neighbor(rng *rand.Rand) Solution {
	return &quadratic{x: q.x + rng.Intn(7) - 3, rugged: q.rugged}
}

func (q *quadratic) Perturb(rng *rand.Rand) Undo {
	q.prev = q.x
	q.x += rng.Intn(7) - 3
	return q.undo
}

func (q *quadratic) undo()            { q.x = q.prev }
func (q *quadratic) Snapshot() any    { return q.x }
func (q *quadratic) Restore(snap any) { q.x = snap.(int) }

// xquadratic is quadratic with midpoint crossover, for the
// recombination-enabled evolutionary engine.
type xquadratic struct{ *quadratic }

func (q xquadratic) Neighbor(rng *rand.Rand) Solution {
	return xquadratic{q.quadratic.Neighbor(rng).(*quadratic)}
}

func (q xquadratic) Crossover(mate Solution, rng *rand.Rand) Solution {
	m, ok := mate.(xquadratic)
	if !ok {
		return nil
	}
	return xquadratic{&quadratic{x: (q.x + m.x) / 2, rugged: q.rugged}}
}

// TestEvolveCrossover: with CrossoverRate set, recombination-capable
// populations still converge, and a zero rate draws no extra
// randomness (bit-identical to the historical mutation-only engine).
func TestEvolveCrossover(t *testing.T) {
	best, stats := Evolve(xquadratic{&quadratic{x: 400}},
		GAOptions{Seed: 5, Generations: 600, StallGenerations: 100, CrossoverRate: 0.5})
	if best.Cost() > 4 {
		t.Fatalf("crossover evolve ended at cost %v (stats: %v)", best.Cost(), stats)
	}
	// Rate zero must replay the mutation-only engine exactly, even on
	// crossover-capable solutions.
	a, _ := Evolve(xquadratic{&quadratic{x: 400}}, GAOptions{Seed: 5, Generations: 50})
	b, _ := Evolve(&quadratic{x: 400}, GAOptions{Seed: 5, Generations: 50})
	ax := a.(xquadratic).x
	bx := b.(*quadratic).x
	if ax != bx {
		t.Fatalf("zero crossover rate diverged from the mutation-only engine: %d vs %d", ax, bx)
	}
}

func TestAnnealFindsOptimum(t *testing.T) {
	q, stats := Anneal(&quadratic{x: 500}, Options{Seed: 1})
	if q.Cost() > 4 {
		t.Fatalf("anneal ended at x=%d cost=%v, want near 37 (stats: %v)", q.x, q.Cost(), stats)
	}
	if stats.Moves == 0 || stats.Accepted == 0 {
		t.Fatal("no moves recorded")
	}
	if stats.BestCost > stats.InitCost {
		t.Fatal("best cost must not exceed initial cost")
	}
}

func TestAnnealRuggedLandscape(t *testing.T) {
	q, _ := Anneal(&quadratic{x: 300, rugged: true}, Options{Seed: 2, MovesPerStage: 200})
	if math.Abs(float64(q.x-37)) > 10 {
		t.Fatalf("rugged anneal ended at x=%d, want near 37", q.x)
	}
}

func TestAnnealDeterministicWithSeed(t *testing.T) {
	a, _ := Anneal(&quadratic{x: 200}, Options{Seed: 7})
	b, _ := Anneal(&quadratic{x: 200}, Options{Seed: 7})
	if a.x != b.x {
		t.Fatal("same seed must give same result")
	}
}

func TestAnnealRespectsMaxStages(t *testing.T) {
	_, stats := Anneal(&quadratic{x: 500}, Options{Seed: 1, MaxStages: 3, StallStages: 100})
	if stats.Stages > 3 {
		t.Fatalf("Stages = %d, want <= 3", stats.Stages)
	}
}

func TestAnnealStallStops(t *testing.T) {
	// Start at the optimum: no improvement is possible, so the run
	// must stop after StallStages stages.
	_, stats := Anneal(&quadratic{x: 37}, Options{Seed: 1, StallStages: 5, MaxStages: 1000})
	if stats.Stages > 60 {
		t.Fatalf("Stages = %d, expected early stall stop", stats.Stages)
	}
}

func TestEvolveFindsOptimum(t *testing.T) {
	best, stats := Evolve(&quadratic{x: 400}, GAOptions{Seed: 5, Generations: 600, StallGenerations: 100})
	q := best.(*quadratic)
	if q.Cost() > 9 {
		t.Fatalf("evolve ended at x=%d cost=%v (stats %v)", q.x, q.Cost(), stats)
	}
}

func TestTwoPhaseBeatsItsStart(t *testing.T) {
	q, stats := TwoPhase(&quadratic{x: 700, rugged: true},
		GAOptions{Seed: 11, Generations: 30},
		Options{Seed: 11, MovesPerStage: 100})
	if math.Abs(float64(q.x-37)) > 10 {
		t.Fatalf("two-phase ended at x=%d, want near 37", q.x)
	}
	if stats.BestCost >= stats.InitCost {
		t.Fatal("two-phase must improve on the initial cost")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Stages: 1, Moves: 2, Accepted: 1, BestCost: 3}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}
