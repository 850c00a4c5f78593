package place

import (
	"fmt"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/engine"
	"repro/internal/geom"
)

// Slicing-tree placer over normalized Polish expressions (Wong/Liu
// style), representing the slicing layout model of ILAC [24]. The
// paper states slicing representations "limit the set of reachable
// layout topologies, degrading the layout density especially when
// cells are very different in size"; this placer exists to measure
// exactly that against the non-slicing SP and B*-tree placers.

// Operator tokens in a Polish expression; non-negative values are
// module ids.
const (
	opH = -1 // horizontal cut: operands stacked vertically
	opV = -2 // vertical cut: operands side by side
)

// polish is a normalized Polish expression in postfix form.
type polish []int

// validPolish checks the balloting property (every prefix has more
// operands than operators), the operand/operator counts, and
// normalization (no two adjacent identical operators).
func validPolish(e polish, n int) bool {
	operands, operators := 0, 0
	for i, t := range e {
		if t >= 0 {
			operands++
		} else {
			if t != opH && t != opV {
				return false
			}
			operators++
			if i > 0 && e[i-1] == t {
				return false // not normalized
			}
			if operators >= operands {
				return false
			}
		}
	}
	return operands == n && operators == n-1
}

// slNode is one node of the decoded slicing tree, linked by indices
// into the decoder's node arena so decoding allocates nothing at
// steady state.
type slNode struct {
	op          int // opH, opV, or module id for leaves
	left, right int // arena indices; -1 for leaves
	w, h        int
}

// slDecoder is the reusable scratch of one slicing representation: the
// node arena, the decode stack, the coordinate assignment stack and
// the per-module coordinates.
type slDecoder struct {
	nodes  []slNode
	stack  []int
	frames []slFrame
	x, y   []int
	pos    []int // operand/operator position scratch for moves
}

type slFrame struct{ node, x, y int }

// Slicing move kinds (the representation's move table): the classic
// Wong-Liu set plus module rotation.
const (
	slMoveM1 = iota // swap two adjacent operands
	slMoveM2        // complement one operator
	slMoveM3        // swap adjacent operand/operator
	slMoveRotate
	slMoveKinds
)

// slRep is the slicing-tree engine.Representation.
type slRep struct {
	prob *Problem
	expr polish
	rot  []bool
	dec  slDecoder

	savedExpr polish
	savedRot  []bool
}

func newSlRep(p *Problem, expr polish) *slRep {
	n := p.N()
	r := &slRep{
		prob: p,
		expr: expr,
		rot:  make([]bool, n),
	}
	r.dec.x = make([]int, n)
	r.dec.y = make([]int, n)
	return r
}

// decodeCoords builds the slicing tree in the node arena, sizes it
// bottom-up and assigns lower-left module coordinates into dec.x/y.
// It reports whether the expression was well-formed.
func (r *slRep) decodeCoords() bool {
	d := &r.dec
	d.nodes = d.nodes[:0]
	d.stack = d.stack[:0]
	for _, t := range r.expr {
		if t >= 0 {
			w, h := r.prob.W[t], r.prob.H[t]
			if r.rot[t] {
				w, h = h, w
			}
			d.nodes = append(d.nodes, slNode{op: t, left: -1, right: -1, w: w, h: h})
			d.stack = append(d.stack, len(d.nodes)-1)
			continue
		}
		if len(d.stack) < 2 {
			return false
		}
		rr := d.stack[len(d.stack)-1]
		l := d.stack[len(d.stack)-2]
		d.stack = d.stack[:len(d.stack)-2]
		nd := slNode{op: t, left: l, right: rr}
		if t == opV {
			nd.w = d.nodes[l].w + d.nodes[rr].w
			nd.h = max(d.nodes[l].h, d.nodes[rr].h)
		} else {
			nd.w = max(d.nodes[l].w, d.nodes[rr].w)
			nd.h = d.nodes[l].h + d.nodes[rr].h
		}
		d.nodes = append(d.nodes, nd)
		d.stack = append(d.stack, len(d.nodes)-1)
	}
	if len(d.stack) != 1 {
		return false
	}
	d.frames = append(d.frames[:0], slFrame{d.stack[0], 0, 0})
	for len(d.frames) > 0 {
		f := d.frames[len(d.frames)-1]
		d.frames = d.frames[:len(d.frames)-1]
		nd := &d.nodes[f.node]
		if nd.op >= 0 {
			d.x[nd.op], d.y[nd.op] = f.x, f.y
			continue
		}
		d.frames = append(d.frames, slFrame{nd.left, f.x, f.y})
		if nd.op == opV {
			d.frames = append(d.frames, slFrame{nd.right, f.x + d.nodes[nd.left].w, f.y})
		} else {
			d.frames = append(d.frames, slFrame{nd.right, f.x, f.y + d.nodes[nd.left].h})
		}
	}
	return true
}

// Pack implements engine.Representation: malformed expressions are
// infeasible.
func (r *slRep) Pack(c *engine.Coords) bool {
	if !r.decodeCoords() {
		return false
	}
	c.X, c.Y, c.W, c.H, c.Rot = r.dec.x, r.dec.y, r.prob.W, r.prob.H, r.rot
	return true
}

// Placement implements engine.Representation.
func (r *slRep) Placement() (geom.Placement, error) {
	if !r.decodeCoords() {
		return nil, fmt.Errorf("place: malformed polish expression")
	}
	pl := geom.Placement{}
	for i := 0; i < r.prob.N(); i++ {
		w, h := r.prob.W[i], r.prob.H[i]
		if r.rot[i] {
			w, h = h, w
		}
		pl[r.prob.Names[i]] = geom.NewRect(r.dec.x[i], r.dec.y[i], w, h)
	}
	return pl, nil
}

// applyMove applies one move of the given kind to the expression in
// place (without validity checking; callers retry against the saved
// state).
func (r *slRep) applyMove(kind int, rng *rand.Rand) {
	switch kind {
	case slMoveM1: // M1: swap two adjacent operands
		pos := r.tokenPositions(true)
		if len(pos) >= 2 {
			i := rng.Intn(len(pos) - 1)
			a, b := pos[i], pos[i+1]
			r.expr[a], r.expr[b] = r.expr[b], r.expr[a]
		}
	case slMoveM2: // M2: complement one operator
		pos := r.tokenPositions(false)
		if len(pos) > 0 {
			i := pos[rng.Intn(len(pos))]
			if r.expr[i] == opH {
				r.expr[i] = opV
			} else {
				r.expr[i] = opH
			}
		}
	case slMoveM3: // M3: swap adjacent operand/operator
		i := rng.Intn(len(r.expr) - 1)
		r.expr[i], r.expr[i+1] = r.expr[i+1], r.expr[i]
	case slMoveRotate: // rotate a module
		m := rng.Intn(r.prob.N())
		r.rot[m] = !r.rot[m]
	}
}

// mutate applies one classic Wong-Liu move (M1/M2/M3 or rotation) to
// the receiver. Invalid results are retried a bounded number of times
// against the saved state, re-drawing the kind per attempt; mutate
// reports whether a valid move was found.
func (r *slRep) mutate(rng *rand.Rand) bool {
	n := r.prob.N()
	for attempt := 0; attempt < 16; attempt++ {
		copy(r.expr, r.savedExpr)
		copy(r.rot, r.savedRot)
		r.applyMove(rng.Intn(slMoveKinds), rng)
		if validPolish(r.expr, n) {
			return true
		}
	}
	// All attempts invalid: restore the saved state.
	copy(r.expr, r.savedExpr)
	copy(r.rot, r.savedRot)
	return false
}

// tokenPositions collects the positions of operands (true) or
// operators (false) into the decoder's scratch slice.
func (r *slRep) tokenPositions(operands bool) []int {
	pos := r.dec.pos[:0]
	for i, t := range r.expr {
		if (t >= 0) == operands {
			pos = append(pos, i)
		}
	}
	r.dec.pos = pos
	return pos
}

// save records the current expression and rotations as the undo point.
func (r *slRep) save() {
	r.savedExpr = append(r.savedExpr[:0], r.expr...)
	r.savedRot = append(r.savedRot[:0], r.rot...)
}

// Perturb implements engine.Representation.
func (r *slRep) Perturb(rng *rand.Rand) bool {
	r.save()
	return r.mutate(rng)
}

// MoveKinds implements engine.MoveTable.
func (r *slRep) MoveKinds() int { return slMoveKinds }

// PerturbKind implements engine.MoveTable: the bounded retry loop
// restricted to one move kind.
func (r *slRep) PerturbKind(kind int, rng *rand.Rand) bool {
	r.save()
	n := r.prob.N()
	for attempt := 0; attempt < 16; attempt++ {
		copy(r.expr, r.savedExpr)
		copy(r.rot, r.savedRot)
		r.applyMove(kind, rng)
		if validPolish(r.expr, n) {
			return true
		}
	}
	copy(r.expr, r.savedExpr)
	copy(r.rot, r.savedRot)
	return false
}

// Undo implements engine.Representation.
func (r *slRep) Undo() {
	copy(r.expr, r.savedExpr)
	copy(r.rot, r.savedRot)
}

// slSnapshot is the best-so-far record of an slRep.
type slSnapshot struct {
	expr polish
	rot  []bool
}

// Snapshot implements engine.Representation.
func (r *slRep) Snapshot() any {
	return &slSnapshot{
		expr: append(polish(nil), r.expr...),
		rot:  append([]bool(nil), r.rot...),
	}
}

// Restore implements engine.Representation.
func (r *slRep) Restore(snapshot any) {
	sn := snapshot.(*slSnapshot)
	copy(r.expr, sn.expr)
	copy(r.rot, sn.rot)
}

// Clone implements engine.Representation.
func (r *slRep) Clone() engine.Representation {
	n := newSlRep(r.prob, append(polish(nil), r.expr...))
	copy(n.rot, r.rot)
	return n
}

// Slicing runs the slicing-tree annealing placer.
func Slicing(p *Problem, opt anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if n == 0 {
		return &Result{Placement: geom.Placement{}}, nil
	}
	newSol := func(seed int64) *engine.Solution {
		// Initial expression: a single row m0 m1 V m2 V ...
		expr := polish{0}
		for i := 1; i < n; i++ {
			expr = append(expr, i, opV)
		}
		s := newKernel(p, newSlRep(p, expr))
		_ = seed // the deterministic initial row ignores the seed
		return s
	}
	best, stats := engine.Run(newSol, opt)
	return finishResult(best, stats)
}
