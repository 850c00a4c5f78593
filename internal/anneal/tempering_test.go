package anneal

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// frozen is a mutable solution whose cost never changes: Perturb
// draws randomness but moves nowhere. It isolates the exchange
// machinery — the only way a frozen chain's cost can change is a
// replica swap.
type frozen struct{ c float64 }

func (f *frozen) Cost() float64 { return f.c }
func (f *frozen) Perturb(rng *rand.Rand) Undo {
	rng.Int63()
	return func() {}
}
func (f *frozen) Snapshot() any    { return f.c }
func (f *frozen) Restore(snap any) { f.c = snap.(float64) }

// TestTemperDisabledBitIdenticalToParallel pins the delegation
// contract: with exchanges disabled, TemperAnneal is ParallelAnneal —
// same best cost, same statistics, for any chain count (including the
// serial chain count 1, preserving the never-loses-to-serial chain).
func TestTemperDisabledBitIdenticalToParallel(t *testing.T) {
	newSol := func(seed int64) *quad {
		rng := rand.New(rand.NewSource(seed))
		return newQuad(rng.Intn(500))
	}
	for _, chains := range []int{1, 4} {
		opt := Options{Seed: 9, MovesPerStage: 25, MaxStages: 30, ExchangeEvery: 0, TemperChains: chains}
		tb, ts := TemperAnneal(newSol, chains, opt)
		pb, ps := ParallelAnneal(newSol, chains, opt)
		if tb.Cost() != pb.Cost() || ts != ps {
			t.Fatalf("chains=%d: exchange-disabled tempering diverged from multi-start: (%v, %+v) vs (%v, %+v)",
				chains, tb.Cost(), ts, pb.Cost(), ps)
		}
	}
}

// TestTemperDeterministic runs the same tempering twice and demands
// identical outcomes, independent of goroutine scheduling.
func TestTemperDeterministic(t *testing.T) {
	run := func() (float64, Stats) {
		newSol := func(seed int64) *quad {
			rng := rand.New(rand.NewSource(seed))
			return newQuad(rng.Intn(200))
		}
		best, stats := TemperAnneal(newSol, 4, Options{Seed: 11, MovesPerStage: 30, MaxStages: 40, ExchangeEvery: 2})
		return best.Cost(), stats
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("non-deterministic tempering: (%v, %+v) vs (%v, %+v)", c1, s1, c2, s2)
	}
	if s1.Exchanges == 0 {
		t.Fatalf("no exchanges attempted: %+v", s1)
	}
}

// TestTemperMetropolisExchange pins the exchange acceptance rule on
// frozen chains. When the cold rung holds the worse state the swap
// delta (βa−βb)(Ea−Eb) is positive and every exchange must be
// accepted (the better state always migrates down the ladder); with
// the assignment reversed the delta is hugely negative and no
// exchange may be accepted.
func TestTemperMetropolisExchange(t *testing.T) {
	opt := Options{
		Seed: 3, MovesPerStage: 1, MaxStages: 6, StallStages: 100,
		InitialTemp: 1, MinTemp: 1e-9, ExchangeEvery: 1,
	}
	coldSeed := chainSeed(opt.Seed, 0)
	costBySeed := func(badCold bool) func(seed int64) *frozen {
		return func(seed int64) *frozen {
			if (seed == coldSeed) == badCold {
				return &frozen{c: 1000}
			}
			return &frozen{c: 10}
		}
	}

	// Cold rung worse: the first sweep's delta is positive, so the
	// swap must be accepted and the good state lands on the cold rung.
	// Every later sweep sees the assignment reversed (hugely negative
	// delta) and must reject — exactly one acceptance total.
	_, stats := TemperAnneal(costBySeed(true), 2, opt)
	if stats.Exchanges < 2 || stats.ExchangeAccepted != 1 {
		t.Fatalf("positive-then-negative delta sequence: accepted %d of %d, want exactly 1", stats.ExchangeAccepted, stats.Exchanges)
	}
	if stats.BestCost != 10 {
		t.Fatalf("best cost %v, want 10", stats.BestCost)
	}

	// Cold rung better: delta = (β0−β1)(10−1000) ≪ 0; exp(delta) is
	// below 1e-100, so acceptance would be a broken criterion.
	_, stats = TemperAnneal(costBySeed(false), 2, opt)
	if stats.Exchanges == 0 || stats.ExchangeAccepted != 0 {
		t.Fatalf("hugely-negative-delta exchange accepted: %d/%d", stats.ExchangeAccepted, stats.Exchanges)
	}
}

// TestTemperExchangeRaisesBest checks tempering does what it is for:
// on frozen chains where only a high rung holds the good state, the
// returned best must be that state, delivered to the cold rung by
// exchange alone.
func TestTemperExchangeRaisesBest(t *testing.T) {
	opt := Options{
		Seed: 5, MovesPerStage: 1, MaxStages: 10, StallStages: 100,
		InitialTemp: 1, MinTemp: 1e-9, ExchangeEvery: 1,
	}
	hotSeed := chainSeed(opt.Seed, 3)
	newSol := func(seed int64) *frozen {
		if seed == hotSeed {
			return &frozen{c: 1}
		}
		return &frozen{c: 50}
	}
	best, stats := TemperAnneal(newSol, 4, opt)
	if best.Cost() != 1 || stats.BestCost != 1 {
		t.Fatalf("good state did not migrate down the ladder: best %v (%+v)", best.Cost(), stats)
	}
	if stats.ExchangeAccepted == 0 {
		t.Fatalf("no accepted exchanges: %+v", stats)
	}
}

// TestTemperCancellationNoWedge cancels a tempering run mid-flight
// (exchanges every stage, so cancellation lands between sweeps) and
// requires a prompt return with the best-so-far and Cancelled set —
// no wedged chain, no deadlock.
func TestTemperCancellationNoWedge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	slow := func(seed int64) *quad {
		rng := rand.New(rand.NewSource(seed))
		return newQuad(rng.Intn(100))
	}
	opt := Options{
		Seed: 7, MovesPerStage: 2000, MaxStages: 100000, StallStages: 100000,
		ExchangeEvery: 1, Context: ctx,
	}
	done := make(chan Stats, 1)
	go func() {
		_, stats := TemperAnneal(slow, 4, opt)
		done <- stats
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case stats := <-done:
		if !stats.Cancelled {
			t.Fatalf("cancelled run not flagged: %+v", stats)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tempering wedged after cancellation")
	}
}

// TestTemperFindsOptimum is the end-to-end sanity check: tempering on
// the toy quadratic still finds the optimum.
func TestTemperFindsOptimum(t *testing.T) {
	newSol := func(seed int64) *quad {
		rng := rand.New(rand.NewSource(seed))
		return newQuad(100 + rng.Intn(100))
	}
	best, stats := TemperAnneal(newSol, 3, Options{Seed: 2, MovesPerStage: 60, MaxStages: 80, ExchangeEvery: 4})
	if stats.BestCost != 0 || best.Cost() != 0 {
		t.Fatalf("tempering missed the optimum: %+v", stats)
	}
}

// TestTemperProgressWorkerStamp pins Stats.Worker's contract on the
// tempering path: every Progress snapshot identifies its rung, every
// rung reports, and at any completed stage rung k runs strictly colder
// than rung k+1. Replicas are pinned to rungs — an accepted exchange
// swaps states, never the chains — so the rung order must match the
// temperature ladder for the whole run, not just the first stage.
func TestTemperProgressWorkerStamp(t *testing.T) {
	const chains = 4
	newSol := func(seed int64) *quad {
		rng := rand.New(rand.NewSource(seed))
		return newQuad(rng.Intn(200))
	}
	var mu sync.Mutex
	temps := map[int]map[int]float64{} // stage → rung → temperature
	// InitialTemp is fixed so the ladder is exactly geometric:
	// auto-calibration is per-replica (each rung calibrates on its own
	// random start), which can produce base temperatures far enough
	// apart that rung temperatures cross.
	opt := Options{
		Seed: 17, MovesPerStage: 20, MaxStages: 20, StallStages: 20, ExchangeEvery: 2,
		InitialTemp: 200,
		Progress: func(st Stats) {
			mu.Lock()
			defer mu.Unlock()
			if st.Worker < 0 || st.Worker >= chains {
				t.Errorf("progress snapshot from rung %d, ladder has %d", st.Worker, chains)
				return
			}
			byRung := temps[st.Stages]
			if byRung == nil {
				byRung = map[int]float64{}
				temps[st.Stages] = byRung
			}
			byRung[st.Worker] = st.FinalTemp
		},
	}
	TemperAnneal(newSol, chains, opt)

	mu.Lock()
	defer mu.Unlock()
	seen := map[int]bool{}
	for stage, byRung := range temps {
		for k := range byRung {
			seen[k] = true
		}
		for k := 0; k < chains-1; k++ {
			a, oka := byRung[k]
			b, okb := byRung[k+1]
			if oka && okb && a >= b {
				t.Fatalf("stage %d: rung %d at %g not colder than rung %d at %g",
					stage, k, a, k+1, b)
			}
		}
	}
	for k := 0; k < chains; k++ {
		if !seen[k] {
			t.Errorf("rung %d produced no progress snapshots", k)
		}
	}
}
