package place

import (
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/bstar"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/geom"
)

// btRep wraps a B*-tree as an engine.Representation: the classic
// perturbations (rotate, move, swap) with exact undo through a
// reusable tree-state buffer, and incremental workspace packing —
// prefix reuse against the previous traversal, bit-identical to the
// full contour pack — so a proposed move allocates nothing and only
// re-packs from the first disturbed traversal step.
type btRep struct {
	prob  *Problem
	tree  *bstar.Tree
	ws    bstar.IncPackWorkspace
	saved bstar.TreeState
}

func newBTRep(p *Problem, tree *bstar.Tree) *btRep {
	return &btRep{prob: p, tree: tree}
}

// Perturb implements engine.Representation using the classic B*-tree
// perturbations (rotate, move, swap).
func (r *btRep) Perturb(rng *rand.Rand) bool {
	r.tree.SaveState(&r.saved)
	r.tree.Perturb(rng)
	return true
}

// Undo implements engine.Representation.
func (r *btRep) Undo() { r.tree.LoadState(&r.saved) }

// Pack implements engine.Representation.
func (r *btRep) Pack(c *engine.Coords) bool {
	x, y := r.tree.PackIncInto(&r.ws)
	c.X, c.Y, c.W, c.H, c.Rot = x, y, r.tree.W, r.tree.H, r.tree.Rot
	return true
}

// Snapshot implements engine.Representation.
func (r *btRep) Snapshot() any {
	sn := &bstar.TreeState{}
	r.tree.SaveState(sn)
	return sn
}

// Restore implements engine.Representation.
func (r *btRep) Restore(snapshot any) {
	r.tree.LoadState(snapshot.(*bstar.TreeState))
}

// Clone implements engine.Representation.
func (r *btRep) Clone() engine.Representation {
	return newBTRep(r.prob, r.tree.Clone())
}

// Placement implements engine.Representation.
func (r *btRep) Placement() (geom.Placement, error) {
	return r.tree.Placement(r.prob.Names)
}

// BStar runs a plain B*-tree annealing placer. Symmetry groups are not
// enforced (see package asf for symmetry islands and package hbstar
// for hierarchical constraints); it serves as the unconstrained
// topological baseline.
func BStar(p *Problem, opt anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	newSol := func(seed int64) *engine.Solution {
		rng := rand.New(rand.NewSource(seed + 11))
		return newKernel(p, newBTRep(p, bstar.NewRandom(p.W, p.H, rng)))
	}
	best, stats := engine.Run(newSol, opt)
	return finishResult(best, stats)
}

// Absolute-coordinate move kinds.
const (
	absMoveTranslate = iota
	absMoveSwap
	absMoveRotate
)

// absRep is the absolute-coordinate baseline Representation: explicit
// module positions that may overlap during the search — the
// exploration style of ILAC/KOAN the paper contrasts with topological
// representations (overlap is penalized by the placer-defined
// overlapTerm the Absolute entry point adds to the model). Mutations
// are small records (one translation, swap or rotation), so the moved
// set is known exactly and the kernel evaluates through
// Model.UpdateMoved without even a coordinate diff.
type absRep struct {
	prob *Problem
	x, y []int
	rot  []bool
	span int // translation range for moves

	op         int // last move: 0 translate, 1 swap, 2 rotate, -1 none
	ma, mb     int // touched modules
	oldX, oldY int
	moved      []int // scratch for UpdateMoved
}

func newAbsRep(p *Problem, span int) *absRep {
	n := p.N()
	return &absRep{
		prob: p,
		x:    make([]int, n),
		y:    make([]int, n),
		rot:  make([]bool, n),
		span: span,
	}
}

// MovedModules implements engine.MovedModules.
func (r *absRep) MovedModules() []int { return r.moved }

// Perturb implements engine.Representation: translate half the time,
// swap or rotate otherwise.
func (r *absRep) Perturb(rng *rand.Rand) bool {
	switch rng.Intn(4) {
	case 0, 1:
		return r.move(absMoveTranslate, rng)
	case 2:
		return r.move(absMoveSwap, rng)
	default:
		return r.move(absMoveRotate, rng)
	}
}

// move applies one move of the given kind, recording the undo
// information in op/ma/mb/oldX/oldY and the moved set in moved.
func (r *absRep) move(kind int, rng *rand.Rand) bool {
	n := r.prob.N()
	r.op = -1
	r.moved = r.moved[:0]
	switch kind {
	case absMoveTranslate:
		m := rng.Intn(n)
		r.op, r.ma = 0, m
		r.oldX, r.oldY = r.x[m], r.y[m]
		r.x[m] += rng.Intn(2*r.span+1) - r.span
		r.y[m] += rng.Intn(2*r.span+1) - r.span
		if r.x[m] < 0 {
			r.x[m] = 0
		}
		if r.y[m] < 0 {
			r.y[m] = 0
		}
		r.moved = append(r.moved, m)
	case absMoveSwap:
		if n >= 2 {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			r.op, r.ma, r.mb = 1, a, b
			r.x[a], r.x[b] = r.x[b], r.x[a]
			r.y[a], r.y[b] = r.y[b], r.y[a]
			r.moved = append(r.moved, a, b)
		}
	case absMoveRotate:
		m := rng.Intn(n)
		r.op, r.ma = 2, m
		r.rot[m] = !r.rot[m]
		r.moved = append(r.moved, m)
	}
	return true
}

// Undo implements engine.Representation.
func (r *absRep) Undo() {
	switch r.op {
	case 0:
		r.x[r.ma], r.y[r.ma] = r.oldX, r.oldY
	case 1:
		r.x[r.ma], r.x[r.mb] = r.x[r.mb], r.x[r.ma]
		r.y[r.ma], r.y[r.mb] = r.y[r.mb], r.y[r.ma]
	case 2:
		r.rot[r.ma] = !r.rot[r.ma]
	}
}

// Pack implements engine.Representation: the coordinates are the
// encoding, so packing is the identity.
func (r *absRep) Pack(c *engine.Coords) bool {
	c.X, c.Y, c.W, c.H, c.Rot = r.x, r.y, r.prob.W, r.prob.H, r.rot
	return true
}

// absSnapshot is the best-so-far record of an absRep.
type absSnapshot struct {
	x, y []int
	rot  []bool
}

// Snapshot implements engine.Representation.
func (r *absRep) Snapshot() any {
	return &absSnapshot{
		x:   append([]int(nil), r.x...),
		y:   append([]int(nil), r.y...),
		rot: append([]bool(nil), r.rot...),
	}
}

// Restore implements engine.Representation.
func (r *absRep) Restore(snapshot any) {
	sn := snapshot.(*absSnapshot)
	copy(r.x, sn.x)
	copy(r.y, sn.y)
	copy(r.rot, sn.rot)
}

// Clone implements engine.Representation.
func (r *absRep) Clone() engine.Representation {
	n := newAbsRep(r.prob, r.span)
	copy(n.x, r.x)
	copy(n.y, r.y)
	copy(n.rot, r.rot)
	return n
}

// Placement implements engine.Representation.
func (r *absRep) Placement() (geom.Placement, error) {
	return r.prob.BuildPlacement(r.x, r.y, r.rot), nil
}

// absConfig is the kernel configuration of the absolute placer: its
// model carries the overlap penalty term on top of the problem's
// composite objective.
func absConfig(p *Problem, penalty float64) engine.Config {
	return engine.Config{
		NewModel: func(engine.Representation) *cost.Model {
			return p.NewModel().Add(penalty, newOverlapTerm(p.N()))
		},
		FullEval: p.FullEval,
	}
}

// Absolute runs the absolute-coordinate annealing baseline. The final
// placement may contain residual overlaps (the method's known
// weakness); callers should check Placement.Legal. The overlap penalty
// is proportional to the average module area so it dominates the area
// term.
func Absolute(p *Problem, opt anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	best, stats := engine.Run(newAbsSol(p), opt)
	return finishResult(best, stats)
}

// newAbsSol is the absolute-coordinate solution factory: modules
// spread on a loose grid in a seed-dependent random order.
func newAbsSol(p *Problem) func(seed int64) *engine.Solution {
	n := p.N()
	// Initial spread: place modules on a loose grid.
	side := 1
	for side*side < n {
		side++
	}
	maxDim := 1
	for i := 0; i < n; i++ {
		if p.W[i] > maxDim {
			maxDim = p.W[i]
		}
		if p.H[i] > maxDim {
			maxDim = p.H[i]
		}
	}
	pitch := maxDim + 1
	return func(seed int64) *engine.Solution {
		rng := rand.New(rand.NewSource(seed + 13))
		r := newAbsRep(p, pitch)
		order := rng.Perm(n)
		for i, m := range order {
			r.x[m] = (i % side) * pitch
			r.y[m] = (i / side) * pitch
		}
		return engine.New(r, absConfig(p, 10))
	}
}
