package anneal

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAnnealContextCancel proves a cancelled context stops the run at
// a stage boundary and still returns the best-so-far with the
// Cancelled flag set.
func TestAnnealContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	q := newQuad(500)
	stagesBeforeCancel := 3
	opt := Options{Seed: 1, MovesPerStage: 20, MaxStages: 1000, StallStages: 1000}
	opt.Context = ctx
	opt.Progress = func(st Stats) {
		if st.Stages == stagesBeforeCancel {
			cancel()
		}
	}
	best, stats := Anneal(q, opt)
	if !stats.Cancelled {
		t.Fatalf("run was cancelled but Stats.Cancelled is false: %+v", stats)
	}
	if stats.Stages != stagesBeforeCancel {
		t.Fatalf("cancelled after stage %d, expected exactly %d stages", stats.Stages, stagesBeforeCancel)
	}
	if best == nil || best.Cost() != stats.BestCost {
		t.Fatalf("cancelled run must return best-so-far (cost %v, stats %v)", best.Cost(), stats.BestCost)
	}
	// Best-so-far can never be worse than the start.
	if stats.BestCost > stats.InitCost {
		t.Fatalf("best %v worse than initial %v", stats.BestCost, stats.InitCost)
	}
}

// TestAnnealContextPreCancelled: a context cancelled before the run
// starts yields zero stages and the initial solution.
func TestAnnealContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := newQuad(42)
	opt := Options{Seed: 1, MovesPerStage: 20, MaxStages: 100}
	opt.Context = ctx
	_, stats := Anneal(q, opt)
	if !stats.Cancelled || stats.Stages != 0 {
		t.Fatalf("pre-cancelled run did work: %+v", stats)
	}
	if stats.BestCost != stats.InitCost {
		t.Fatalf("pre-cancelled run must report the initial cost, got %+v", stats)
	}
}

// TestAnnealNilContextUnchanged pins that threading a nil context (the
// default) is bit-identical to a context that is never cancelled:
// cancellation checks must not consume randomness.
func TestAnnealNilContextUnchanged(t *testing.T) {
	run := func(ctx context.Context) Stats {
		opt := Options{Seed: 7, MovesPerStage: 30, MaxStages: 50}
		opt.Context = ctx
		_, stats := Anneal(newQuad(300), opt)
		return stats
	}
	if a, b := run(nil), run(context.Background()); a != b {
		t.Fatalf("context plumbing changed the run: %+v vs %+v", a, b)
	}
}

// TestParallelAnnealContextCancel: every chain of a multi-start run
// honors cancellation and the aggregate carries the flag.
func TestParallelAnnealContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stages atomic.Int64
	opt := Options{Seed: 3, MovesPerStage: 10, MaxStages: 100000, StallStages: 100000}
	opt.Context = ctx
	opt.Progress = func(st Stats) {
		if stages.Add(1) == 8 {
			cancel()
		}
	}
	newSol := func(seed int64) *quad {
		rng := rand.New(rand.NewSource(seed))
		return newQuad(100000 + rng.Intn(1000))
	}
	best, stats := ParallelAnneal(newSol, 4, opt)
	if !stats.Cancelled {
		t.Fatalf("aggregate lost the Cancelled flag: %+v", stats)
	}
	if best == nil {
		t.Fatal("cancelled multi-start returned no solution")
	}
	if stats.Stages >= 100000 {
		t.Fatalf("cancellation did not stop the chains: %+v", stats)
	}
}

// TestParallelWorker0ReplicatesSerial locks in the PR 1 guarantee
// under the new progress/context plumbing: worker 0 of a multi-start
// run walks the exact per-stage trajectory of a serial run with the
// same Options — bit-identical best cost, moves and acceptance counts
// at every stage — so the best-of reduction can never lose to serial.
// It also pins that two identical multi-start runs are bit-identical.
func TestParallelWorker0ReplicatesSerial(t *testing.T) {
	newSol := func(seed int64) *quad {
		rng := rand.New(rand.NewSource(seed))
		return newQuad(rng.Intn(500))
	}
	base := Options{Seed: 17, MovesPerStage: 25, MaxStages: 40, StallStages: 40}

	var serial []Stats
	sopt := base
	sopt.Progress = func(st Stats) { serial = append(serial, st) }
	_, serialStats := Anneal(newSol(chainSeed(base.Seed, 0)), sopt)

	run := func() ([]Stats, Stats) {
		var mu sync.Mutex
		var w0 []Stats
		popt := base
		popt.Progress = func(st Stats) {
			if st.Worker != 0 {
				return
			}
			mu.Lock()
			w0 = append(w0, st)
			mu.Unlock()
		}
		_, stats := ParallelAnneal(newSol, 4, popt)
		return w0, stats
	}
	w0, par1 := run()
	_, par2 := run()

	if par1 != par2 {
		t.Fatalf("identical multi-start runs differ: %+v vs %+v", par1, par2)
	}
	if len(w0) != len(serial) {
		t.Fatalf("worker 0 ran %d stages, serial ran %d", len(w0), len(serial))
	}
	for i := range serial {
		got := w0[i]
		got.Worker = 0 // serial snapshots carry Worker 0 already
		if got != serial[i] {
			t.Fatalf("stage %d diverged: worker0 %+v vs serial %+v", i, w0[i], serial[i])
		}
	}
	if par1.BestCost > serialStats.BestCost {
		t.Fatalf("multi-start best %v lost to serial %v", par1.BestCost, serialStats.BestCost)
	}
}
