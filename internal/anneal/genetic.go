package anneal

import (
	"context"
	"math/rand"
	"sort"
)

// Crossoverer is an optional extension of Solution for recombination-
// based search: Crossover returns a new solution combining the
// receiver and mate, or nil when the receiver's representation cannot
// recombine — the evolutionary engine then falls back to mutation.
type Crossoverer interface {
	Solution
	Crossover(mate Solution, rng *rand.Rand) Solution
}

// GAOptions configure the evolutionary baseline.
type GAOptions struct {
	// Population size (μ). Default 20.
	Population int
	// Offspring per generation (λ). Default 40.
	Offspring int
	// Generations to run. Default 100.
	Generations int
	// StallGenerations stops early after this many generations
	// without improvement. Default 20.
	StallGenerations int
	// Seed for the internal RNG.
	Seed int64
	// CrossoverRate is the probability an offspring is produced by
	// recombining two parents (through Crossoverer) instead of mutating
	// one. Zero — the default — draws no extra randomness and keeps the
	// historical mutation-only engine bit-identical; it only acts on
	// solutions implementing Crossoverer.
	CrossoverRate float64
	// Context, when non-nil, cancels the run cooperatively. It is
	// checked once per generation; a cancelled run returns the best
	// solution so far with Stats.Cancelled set.
	Context context.Context
}

// cancelled reports whether the run's context has been cancelled.
func (o *GAOptions) cancelled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

func (o GAOptions) withDefaults() GAOptions {
	if o.Population <= 0 {
		o.Population = 20
	}
	if o.Offspring <= 0 {
		o.Offspring = 40
	}
	if o.Generations <= 0 {
		o.Generations = 100
	}
	if o.StallGenerations <= 0 {
		o.StallGenerations = 20
	}
	return o
}

// scored pairs a solution with its cached cost.
type scored struct {
	s Solution
	c float64
}

// Evolve runs a (μ+λ) evolutionary search seeded from the initial
// solution: each generation draws parents uniformly from the
// population, produces offspring, and keeps the best μ of parents plus
// offspring. It is the genetic-algorithm stand-in of the two-phase
// approach [28]. Mutation through Neighbor is the default variation
// operator, matching how permutation encodings are typically mutated
// in analog placement; with CrossoverRate > 0, solutions implementing
// Crossoverer additionally recombine pairs of parents.
func Evolve(initial Solution, opt GAOptions) (Solution, Stats) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	pop := make([]scored, 1, opt.Population)
	pop[0] = scored{initial, initial.Cost()}
	stats := Stats{InitCost: pop[0].c}
	// Fill the initial population with mutants of the seed.
	for len(pop) < opt.Population {
		m := initial.Neighbor(rng)
		pop = append(pop, scored{m, m.Cost()})
		stats.Moves++
	}
	sortPop(pop)
	best := pop[0]
	stall := 0
	for gen := 0; gen < opt.Generations && stall < opt.StallGenerations; gen++ {
		if opt.cancelled() {
			stats.Cancelled = true
			break
		}
		stats.Stages++
		for i := 0; i < opt.Offspring; i++ {
			parent := pop[rng.Intn(len(pop))]
			var child Solution
			if opt.CrossoverRate > 0 && rng.Float64() < opt.CrossoverRate {
				if xp, ok := parent.s.(Crossoverer); ok {
					mate := pop[rng.Intn(len(pop))]
					child = xp.Crossover(mate.s, rng)
				}
			}
			if child == nil {
				child = parent.s.Neighbor(rng)
			}
			pop = append(pop, scored{child, child.Cost()})
			stats.Moves++
		}
		sortPop(pop)
		pop = pop[:opt.Population]
		if pop[0].c < best.c {
			best = pop[0]
			stats.Improved++
			stall = 0
		} else {
			stall++
		}
	}
	stats.BestCost = best.c
	return best.s, stats
}

func sortPop(pop []scored) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].c < pop[j].c })
}

// TwoPhase runs the GA+SA combination reported in [28]: a coarse
// evolutionary exploration followed by simulated-annealing refinement
// of the evolved best, with the SA temperature calibrated on the
// already-improved solution so the second phase fine-tunes rather than
// re-randomizes. The evolutionary phase clones through Neighbor, so
// Neighbor must return values of the initial solution's type S; the
// annealing phase then refines the evolved best in place.
func TwoPhase[S interface {
	Solution
	MutableSolution
}](initial S, ga GAOptions, sa Options) (S, Stats) {
	evolved, gaStats := Evolve(initial, ga)
	refined, saStats := Anneal(evolved.(S), sa)
	return refined, Stats{
		Stages:    gaStats.Stages + saStats.Stages,
		Moves:     gaStats.Moves + saStats.Moves,
		Accepted:  gaStats.Accepted + saStats.Accepted,
		Improved:  gaStats.Improved + saStats.Improved,
		FinalTemp: saStats.FinalTemp,
		InitCost:  gaStats.InitCost,
		BestCost:  saStats.BestCost,
		Cancelled: gaStats.Cancelled || saStats.Cancelled,
	}
}
