package shapefn

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bstar"
	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/geom"
)

// maxEnumSet bounds exhaustive enumeration of a basic module set:
// n!·Catalan(n) placements (times rotations) are enumerated for sets
// up to this size; larger sets are combined incrementally by shape
// addition. The paper's basic module sets are "a small number of
// modules, e.g., the transistors of a differential pair or a current
// mirror", so real sets stay below this bound.
const maxEnumSet = 6

// ctxCheckEvery is how many enumerated trees pass between two context
// checks: about a millisecond of packing, short next to any caller's
// cancellation latency.
const ctxCheckEvery = 1024

// placer runs the deterministic, hierarchically bounded enumeration of
// Section IV: enumerate all placements of each basic module set (the
// leaves of the hierarchy tree), store them as (enhanced) shape
// functions, and combine the functions bottom-up along the tree.
type placer struct {
	ctx      context.Context
	enhanced bool // enhanced shape functions (ESF) instead of regular ones (RSF)
	bench    *circuits.Bench
	// groups are the tree's symmetry constraints and members their
	// modules. Proximity is implied by construction (shape addition
	// keeps operands adjacent), and module-level common centroid
	// reduces to symmetry (see package circuits).
	groups  []constraint.SymmetryGroup
	members [][]string
}

// Result of a deterministic placement.
type Result struct {
	Placement geom.Placement
	Function  Function // root shape function
	Shape     Shape    // chosen (minimum-area) shape
}

// Place runs the Section IV placer on a benchmark, with enhanced shape
// functions (ESF) when enhanced is set and regular ones (RSF)
// otherwise: the bottom-up combination over the hierarchy tree, whose
// minimum-area root shape is the placement. The order of the tree's
// children and devices fixes the order shapes are combined in, so the
// result depends on it. ctx is checked every ctxCheckEvery enumerated
// trees and before every shape addition and ESF shape pair, which
// changes no output; an enumeration has no best-so-far, so a cancelled
// run returns ctx's error.
func Place(ctx context.Context, b *circuits.Bench, enhanced bool) (*Result, error) {
	if b.Tree == nil {
		return nil, fmt.Errorf("shapefn: nil hierarchy tree")
	}
	f, err := newPlacer(ctx, b, enhanced).functionFor(b.Tree)
	if err != nil {
		return nil, err
	}
	s, ok := f.MinArea()
	if !ok {
		return nil, fmt.Errorf("shapefn: empty root shape function")
	}
	pl := s.Placement()
	pl.Normalize()
	return &Result{Placement: pl, Function: f, Shape: s}, nil
}

// newPlacer builds the placer for a benchmark with a hierarchy tree.
func newPlacer(ctx context.Context, b *circuits.Bench, enhanced bool) *placer {
	p := &placer{ctx: ctx, enhanced: enhanced, bench: b}
	var walk func(n *constraint.Node)
	walk = func(n *constraint.Node) {
		if n.Kind == constraint.KindSymmetry && len(n.SymPairs)+len(n.SymSelfs) > 0 {
			g := constraint.SymmetryGroup{Name: n.Name, Vertical: true, Pairs: n.SymPairs, Selfs: n.SymSelfs}
			p.groups = append(p.groups, g)
			p.members = append(p.members, g.Members())
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(b.Tree)
	return p
}

// dims returns a device's footprint.
func (p *placer) dims(name string) (int, int, error) {
	d := p.bench.Circuit.Device(name)
	if d == nil {
		return 0, 0, fmt.Errorf("shapefn: unknown device %q", name)
	}
	if d.FW <= 0 || d.FH <= 0 {
		return 0, 0, fmt.Errorf("shapefn: device %q has no footprint", name)
	}
	return d.FW, d.FH, nil
}

// check is the Checker of every shape: it validates each symmetry
// group a placement fragment fully contains, and skips the others (a
// fragment cannot violate a constraint it does not cover).
func (p *placer) check(pl geom.Placement) error {
	for i, g := range p.groups {
		if covers(pl, p.members[i]) {
			if err := g.Check(pl); err != nil {
				return err
			}
		}
	}
	return nil
}

// covers reports whether pl places every one of members.
func covers(pl geom.Placement, members []string) bool {
	for _, m := range members {
		if _, ok := pl[m]; !ok {
			return false
		}
	}
	return true
}

// enumerateSet computes the shape function of one basic module set of
// at most maxEnumSet modules by exhaustive B*-tree (and rotation)
// enumeration, keeping only placements that satisfy the applicable
// constraints. Each tree packs on one reused workspace, and the
// symmetry check runs only when the set contains a whole group (the
// only groups check validates). Candidates are kept as compact records
// in enumeration order and pruned in that order, so ties resolve as
// for a list of shapes; only the survivors become pointer trees.
func (p *placer) enumerateSet(names []string) (Function, error) {
	n := len(names)
	w := make([]int, n)
	h := make([]int, n)
	for i, name := range names {
		var err error
		w[i], h[i], err = p.dims(name)
		if err != nil {
			return Function{}, err
		}
	}
	pl := geom.Placement{}
	for _, name := range names {
		pl[name] = geom.Rect{}
	}
	if !slices.ContainsFunc(p.members, func(m []string) bool { return covers(pl, m) }) {
		pl = nil // every tree of the set passes check
	}
	// cand is one legal tree, kept compactly: its bounding box, its
	// rotation mask and its links.
	type cand struct {
		w, h, mask, root int
		left, right      [maxEnumSet]int8
	}
	var cands []cand
	var ws bstar.PackWorkspace
	ew := make([]int, n)
	eh := make([]int, n)
	trees := 0
	// Every rotation mask: basic sets enumerate module rotations.
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				ew[i], eh[i] = h[i], w[i]
			} else {
				ew[i], eh[i] = w[i], h[i]
			}
		}
		bstar.EnumerateTrees(ew, eh, func(t *bstar.Tree) bool {
			if trees++; trees%ctxCheckEvery == 0 && p.ctx.Err() != nil {
				return false
			}
			x, y := t.PackInto(&ws)
			tw, th := 0, 0
			for i := range x {
				tw, th = max(tw, x[i]+ew[i]), max(th, y[i]+eh[i])
			}
			if pl != nil {
				for i, name := range names {
					pl[name] = geom.NewRect(x[i], y[i], ew[i], eh[i])
				}
				if p.check(pl) != nil {
					return true
				}
			}
			c := cand{w: tw, h: th, mask: mask, root: t.Root}
			for m := range names {
				c.left[m], c.right[m] = int8(t.Left[m]), int8(t.Right[m])
			}
			cands = append(cands, c)
			return true
		})
		if err := p.ctx.Err(); err != nil {
			return Function{}, err
		}
	}
	// Both function kinds keep the packed tree: it rebuilds the set's
	// placement, and enhanced additions graft onto it.
	var shapes []Shape
	for _, c := range pareto(cands, func(c *cand) (int, int, bool) { return c.w, c.h, true }) {
		nodes := make([]tnode, n)
		link := func(m int8) *tnode {
			if m < 0 {
				return nil
			}
			return &nodes[m]
		}
		for m := range nodes {
			nodes[m] = tnode{name: names[m], w: w[m], h: h[m], left: link(c.left[m]), right: link(c.right[m])}
			if c.mask>>m&1 == 1 {
				nodes[m].w, nodes[m].h = h[m], w[m]
			}
		}
		shapes = append(shapes, Shape{W: c.w, H: c.h, tree: &nodes[c.root]})
	}
	f := prune(shapes)
	if len(f.Shapes) == 0 {
		return Function{}, fmt.Errorf("shapefn: no constraint-satisfying placement for set %v", names)
	}
	return f, nil
}

// combine adds the functions left to right according to the placer
// mode, checking ctx before every addition. Non-empty operands give a
// non-empty sum; Place rejects an empty root.
func (p *placer) combine(fs []Function) (Function, error) {
	f := fs[0]
	for _, g := range fs[1:] {
		if err := p.ctx.Err(); err != nil {
			return Function{}, err
		}
		if !p.enhanced {
			f = AddRSF(f, g)
			continue
		}
		var err error
		if f, err = AddESF(p.ctx, f, g, p.check); err != nil {
			return Function{}, err
		}
	}
	return f, nil
}

// functionFor computes the shape function of a hierarchy subtree.
func (p *placer) functionFor(n *constraint.Node) (Function, error) {
	// Leaf sub-circuit: one basic module set, enumerated exhaustively
	// unless oversized, then combined one module at a time below.
	if len(n.Children) == 0 && len(n.Devices) <= maxEnumSet {
		if len(n.Devices) == 0 {
			return Function{}, fmt.Errorf("shapefn: empty sub-circuit %q", n.Name)
		}
		return p.enumerateSet(n.Devices)
	}
	// Inner node: combine child functions, then direct devices.
	var fs []Function
	for _, c := range n.Children {
		f, err := p.functionFor(c)
		if err != nil {
			return Function{}, err
		}
		fs = append(fs, f)
	}
	for _, d := range n.Devices {
		w, h, err := p.dims(d)
		if err != nil {
			return Function{}, err
		}
		fs = append(fs, Leaf(d, w, h, true, p.enhanced))
	}
	return p.combine(fs)
}
