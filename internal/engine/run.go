package engine

import (
	"fmt"
	"math"

	"repro/internal/anneal"
)

// InitRetries bounds the attempts every placer makes to draw a
// feasible (finite-cost) initial solution before giving up. It lives
// in the kernel so every representation shares one retry policy.
const InitRetries = 64

// FeasibleInit draws initial solutions from gen until one has finite
// cost, retrying up to InitRetries times. On exhaustion it returns the
// last attempt together with an error, so parallel-worker factories
// (which cannot fail) can still hand the engine a solution while
// serial paths surface the shared error message.
func FeasibleInit(gen func() *Solution) (*Solution, error) {
	var s *Solution
	for try := 0; try < InitRetries; try++ {
		s = gen()
		if !math.IsInf(s.Cost(), 1) {
			return s, nil
		}
	}
	return s, fmt.Errorf("engine: no feasible initial solution after %d attempts", InitRetries)
}

// Run dispatches a placer's search: a single in-place annealing chain
// by default, parallel multi-start when opt.Workers > 1, or parallel
// tempering when opt.TemperChains > 1 (which wins over Workers — the
// chains are the parallelism). The serial path builds its solution
// from the same derived seed as ParallelAnneal's worker 0, so
// -workers=1 and the serial path are the same run, and TemperAnneal
// with exchanges disabled degrades to exactly ParallelAnneal.
func Run(newSol func(seed int64) *Solution, opt anneal.Options) (*Solution, anneal.Stats) {
	if opt.TemperChains > 1 {
		return anneal.TemperAnneal(newSol, opt.TemperChains, opt)
	}
	if opt.Workers > 1 {
		return anneal.ParallelAnneal(newSol, opt.Workers, opt)
	}
	return anneal.Anneal(newSol(opt.Seed), opt)
}

// RunFeasible is Run for representations whose random initial states
// can be infeasible even after FeasibleInit's retries: the serial path
// probes the initial solution before annealing, and every path checks
// the final best, surfacing one shared error message prefixed with
// name. Parallel factories cannot fail, so their retry exhaustion is
// detected on the reduced best instead.
func RunFeasible(name string, newSol func(seed int64) *Solution, opt anneal.Options) (*Solution, anneal.Stats, error) {
	fail := func() error {
		return fmt.Errorf("%s: no feasible initial solution after %d attempts", name, InitRetries)
	}
	if opt.TemperChains <= 1 && opt.Workers <= 1 {
		// Run's serial path anneals exactly this solution.
		probe := newSol(opt.Seed)
		if math.IsInf(probe.Cost(), 1) {
			return nil, anneal.Stats{}, fail()
		}
		newSol = func(int64) *Solution { return probe }
	}
	best, stats := Run(newSol, opt)
	if math.IsInf(best.Cost(), 1) {
		return nil, stats, fail()
	}
	return best, stats, nil
}
