package place

import (
	"fmt"
	"math"

	"repro/internal/anneal"
	"repro/internal/engine"
)

// Memetic engines: the crossover-enabled GA+SA two-phase search of
// Zhang et al. [28] over representations implementing
// engine.Crossover. An evolutionary exploration recombines and mutates
// a population of encodings, then simulated annealing refines the
// evolved best in place — the kernel makes the combination available
// to every crossover-capable representation at once, where the
// pre-kernel code had one hand-wired two-phase placer per
// representation.

// DefaultCrossoverRate is the memetic engines' offspring recombination
// probability (the remainder mutates through the representation's own
// move set).
const DefaultCrossoverRate = 0.6

// GeneticSeqPair runs the memetic engine over symmetric-feasible
// sequence pairs: offspring recombine through order crossover on both
// sequences (children that break symmetric feasibility pack to +Inf
// and die in selection), the rest mutate through the S-F-preserving
// move set, and annealing refines the evolved best. The returned
// placement is checked against the problem's symmetry groups like
// SeqPair's.
func GeneticSeqPair(p *Problem, ga anneal.GAOptions, sa anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	init := newSPSol(p)(sa.Seed)
	if math.IsInf(init.Cost(), 1) {
		return nil, fmt.Errorf("place: genetic:seqpair: no feasible initial solution after %d attempts", engine.InitRetries)
	}
	best, stats := anneal.TwoPhase(init, ga, sa)
	res, err := finishResult(best, stats)
	if err != nil {
		return nil, err
	}
	if err := p.ConstraintSet().Check(res.Placement); err != nil {
		return nil, fmt.Errorf("place: internal error, result violates constraints: %v", err)
	}
	return res, nil
}
