package anneal

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// chainSeed derives the seed of worker i from the base seed. The
// multiplier is an arbitrary large odd constant so neighboring worker
// ids land far apart in the seed space; the mapping is fixed, keeping
// multi-start runs reproducible for a given (seed, workers) pair.
func chainSeed(base int64, worker int) int64 {
	const stride = 0x4F1BBCDCBFA53E0B // 2⁶³/φ, odd
	return base + int64(worker)*stride
}

// fanOut runs fn(0) … fn(n-1) on n goroutines and waits for all of
// them. A chain panic would kill the process from its goroutine, where
// no caller can recover it; fanOut captures the first one — with the
// originating goroutine's stack, which the rethrow would otherwise
// lose — and rethrows it on the calling goroutine, so servers wrapping
// the engines in a recover see it. label names the unit in the
// message ("worker 2: …").
func fanOut(n int, label string, fn func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = fmt.Sprintf("%s %d: %v\n%s", label, i, r, debug.Stack())
					}
					mu.Unlock()
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// bestOf reduces per-chain statistics to the winning chain — the
// lowest BestCost, ties broken by the lowest chain id — and their
// aggregate: moves and stages summed across chains, Cancelled set when
// any chain stopped on its context, and InitCost/BestCost/FinalTemp
// and Worker taken from the winner.
func bestOf(chains []Stats) (win int, agg Stats) {
	for i, st := range chains {
		agg.Stages += st.Stages
		agg.Moves += st.Moves
		agg.Accepted += st.Accepted
		agg.Improved += st.Improved
		if st.Cancelled {
			agg.Cancelled = true
		}
		if st.BestCost < chains[win].BestCost {
			win = i
		}
	}
	agg.InitCost = chains[win].InitCost
	agg.BestCost = chains[win].BestCost
	agg.FinalTemp = chains[win].FinalTemp
	agg.Worker = chains[win].Worker
	return win, agg
}

// ParallelAnneal runs parallel multi-start simulated annealing: one
// independent chain per worker, each on its own solution built by
// newSolution from a derived seed (so every chain owns its RNG, its
// representation state and its packing workspaces — nothing is shared
// between goroutines), followed by a best-of reduction.
//
// The result is deterministic for a fixed (opt.Seed, workers) pair:
// worker i always receives chainSeed(opt.Seed, i) regardless of
// scheduling, and cost ties in the reduction are broken by the lowest
// worker id. Worker 0 runs the exact chain a serial Anneal with the
// same Options would run.
//
// Each chain is allocation-free at steady state; the aggregate Stats
// sum moves across chains while InitCost/BestCost/FinalTemp come from
// the winning chain, Worker records the winning chain's id, and
// Cancelled is set when any chain stopped on Options.Context.
//
// Options.Progress snapshots are stamped with the reporting chain's
// Worker id; the callback is invoked concurrently from every chain.
func ParallelAnneal[S MutableSolution](newSolution func(seed int64) S, workers int, opt Options) (S, Stats) {
	if workers <= 1 {
		return Anneal(newSolution(chainSeed(opt.Seed, 0)), opt)
	}
	sols := make([]S, workers)
	stats := make([]Stats, workers)
	fanOut(workers, "worker", func(i int) {
		// Flight events and stage spans carry the chain id; the
		// recorder itself is shared (it is concurrency-safe).
		wopt := opt
		wopt.Seed = chainSeed(opt.Seed, i)
		sols[i] = newSolution(wopt.Seed)
		stats[i] = annealChain(sols[i], i, wopt)
	})
	win, agg := bestOf(stats)
	return sols[win], agg
}
