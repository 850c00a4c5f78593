package anneal

import (
	"math/rand"
	"testing"
)

// quad is a toy mutable solution: minimize (v-7)² over integer moves.
// It counts Perturb calls so tests can prove the engine drove it.
type quad struct {
	v        int
	prev     int
	undo     Undo
	perturbs int
}

func newQuad(v int) *quad {
	q := &quad{v: v}
	q.undo = func() { q.v = q.prev }
	return q
}

func (q *quad) Cost() float64 {
	d := float64(q.v - 7)
	return d * d
}

func (q *quad) Perturb(rng *rand.Rand) Undo {
	q.perturbs++
	q.prev = q.v
	q.v += rng.Intn(3) - 1
	return q.undo
}

func (q *quad) Snapshot() any    { return q.v }
func (q *quad) Restore(snap any) { q.v = snap.(int) }

// TestAnnealUsesInPlaceEngine proves that the solution is driven
// through Perturb/Undo and that the returned solution is the same
// object restored to the best state.
func TestAnnealUsesInPlaceEngine(t *testing.T) {
	q := newQuad(100)
	best, stats := Anneal(q, Options{Seed: 1, MovesPerStage: 50, MaxStages: 60})
	if q.perturbs == 0 {
		t.Fatal("Perturb was never called")
	}
	if best != q {
		t.Fatal("in-place anneal returned a different object")
	}
	if best.Cost() != stats.BestCost {
		t.Fatalf("returned solution cost %v, stats best %v", best.Cost(), stats.BestCost)
	}
	if stats.BestCost != 0 {
		t.Fatalf("failed to find the optimum: best=%v (%+v)", stats.BestCost, stats)
	}
}

// TestParallelAnnealDeterministic runs the same multi-start twice and
// demands identical outcomes, independent of goroutine scheduling.
func TestParallelAnnealDeterministic(t *testing.T) {
	run := func() (float64, Stats) {
		newSol := func(seed int64) *quad {
			rng := rand.New(rand.NewSource(seed))
			return newQuad(rng.Intn(200))
		}
		best, stats := ParallelAnneal(newSol, 4, Options{Seed: 11, MovesPerStage: 30, MaxStages: 40})
		return best.Cost(), stats
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("non-deterministic multi-start: (%v, %+v) vs (%v, %+v)", c1, s1, c2, s2)
	}
}

// TestParallelAnnealBestOf checks the reduction: the multi-start
// result is at least as good as every chain run individually.
func TestParallelAnnealBestOf(t *testing.T) {
	opt := Options{Seed: 21, MovesPerStage: 10, MaxStages: 8, StallStages: 3}
	newSol := func(seed int64) *quad {
		rng := rand.New(rand.NewSource(seed))
		return newQuad(rng.Intn(1000))
	}
	const workers = 6
	best, stats := ParallelAnneal(newSol, workers, opt)
	var moves int
	for i := 0; i < workers; i++ {
		wopt := opt
		wopt.Seed = chainSeed(opt.Seed, i)
		wopt.Workers = 1
		chainBest, chainStats := Anneal(newSol(wopt.Seed), wopt)
		moves += chainStats.Moves
		if chainBest.Cost() < best.Cost() {
			t.Fatalf("chain %d beat the multi-start reduction: %v < %v",
				i, chainBest.Cost(), best.Cost())
		}
	}
	if stats.Moves != moves {
		t.Fatalf("aggregate moves %d, chains total %d", stats.Moves, moves)
	}
	// Worker 0 must be the chain a serial run with the same Options
	// produces.
	serialBest, _ := Anneal(newSol(chainSeed(opt.Seed, 0)), opt)
	if serialBest.Cost() < best.Cost() {
		t.Fatalf("serial chain better than multi-start best-of: %v < %v",
			serialBest.Cost(), best.Cost())
	}
}
