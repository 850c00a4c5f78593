package place

import (
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/bstar"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/tcg"
)

// tcgRep wraps a transitive closure graph as an
// engine.Representation. A perturbation is undone by restoring the
// saved matrices — an O(n²) copy, the same order as one packing
// evaluation.
type tcgRep struct {
	prob  *Problem
	g     *tcg.TCG
	ws    tcg.PackWorkspace
	saved tcg.State
}

func newTCGRep(p *Problem, g *tcg.TCG) *tcgRep {
	return &tcgRep{prob: p, g: g}
}

// Perturb implements engine.Representation with the TCG perturbations
// (rotate, swap, edge reversal, edge move).
func (r *tcgRep) Perturb(rng *rand.Rand) bool {
	r.g.SaveState(&r.saved)
	r.g.Perturb(rng)
	return true
}

// Undo implements engine.Representation.
func (r *tcgRep) Undo() { r.g.LoadState(&r.saved) }

// Pack implements engine.Representation. Rotation swaps W/H in place
// on the TCG, so Rot is nil.
func (r *tcgRep) Pack(c *engine.Coords) bool {
	x, y := r.g.PackInto(&r.ws)
	c.X, c.Y, c.W, c.H, c.Rot = x, y, r.g.W, r.g.H, nil
	return true
}

// Snapshot implements engine.Representation.
func (r *tcgRep) Snapshot() any {
	sn := &tcg.State{}
	r.g.SaveState(sn)
	return sn
}

// Restore implements engine.Representation.
func (r *tcgRep) Restore(snapshot any) {
	r.g.LoadState(snapshot.(*tcg.State))
}

// Clone implements engine.Representation.
func (r *tcgRep) Clone() engine.Representation {
	return newTCGRep(r.prob, r.g.Clone())
}

// Placement implements engine.Representation.
func (r *tcgRep) Placement() (geom.Placement, error) {
	return r.g.Placement(r.prob.Names)
}

// TCG runs a transitive-closure-graph annealing placer — the third
// non-slicing representation Section II names ([15]). Symmetry groups
// are not enforced; it serves as a representation baseline alongside
// BStar and Slicing.
func TCG(p *Problem, opt anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	newSol := func(seed int64) *engine.Solution {
		s := newKernel(p, newTCGRep(p, tcg.New(p.W, p.H)))
		_ = seed // the deterministic initial row ignores the seed
		return s
	}
	best, stats := engine.Run(newSol, opt)
	return finishResult(best, stats)
}

// TwoPhaseBStar runs the GA+SA two-phase strategy of Zhang et al.
// ([28]) over B*-trees: an evolutionary exploration followed by
// annealing refinement.
func TwoPhaseBStar(p *Problem, ga anneal.GAOptions, sa anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sa.Seed + 17))
	init := newKernel(p, newBTRep(p, bstar.NewRandom(p.W, p.H, rng)))
	best, stats := anneal.TwoPhase(init, ga, sa)
	return finishResult(best, stats)
}
