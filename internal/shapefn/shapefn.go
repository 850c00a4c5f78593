// Package shapefn implements shape functions and enhanced shape
// functions (ESF) for the deterministic analog placement of Section IV
// (Strasser et al. [25]).
//
// A shape function is a dominance-pruned set of (width, height)
// alternatives for placing a set of modules: any shape that is both
// wider and taller than another is redundant and removed. Regular
// shape functions (RSF) combine two operands by adding bounding
// rectangles. Enhanced shape functions additionally store the B*-tree
// of each placement; adding two shapes grafts one tree onto the other
// and repacks with the contour, letting the operands interleave — the
// result can be w_imp narrower than the bounding-box sum (Fig. 7).
// Because grafting can deform the second operand, every enhanced sum
// is validated against the symmetry constraints of the modules it
// contains and falls back to the bounding-box sum when a constraint
// would break, preserving "all symmetry constraints" as the paper
// requires.
package shapefn

import (
	"context"
	"sort"

	"repro/internal/geom"
)

// tnode is a pointer-based B*-tree node carrying a named module, used
// for enhanced shapes. (Package bstar's dense-id trees cover whole
// module sets; shape composition needs trees over arbitrary subsets,
// which pointers express directly.)
type tnode struct {
	name        string
	w, h        int
	left, right *tnode
}

func cloneTree(n *tnode) *tnode {
	if n == nil {
		return nil
	}
	return &tnode{
		name: n.name, w: n.w, h: n.h,
		left:  cloneTree(n.left),
		right: cloneTree(n.right),
	}
}

// lastPreorder returns the last node of a pre-order traversal; it has
// no children, so both its child slots are free attachment points.
func lastPreorder(n *tnode) *tnode {
	for {
		switch {
		case n.right != nil:
			n = n.right
		case n.left != nil:
			n = n.left
		default:
			return n
		}
	}
}

// packTree packs a pointer B*-tree with the standard contour sweep and
// returns the placement with its bounding width and height.
func packTree(root *tnode) (geom.Placement, int, int) {
	pl := geom.Placement{}
	if root == nil {
		return pl, 0, 0
	}
	const inf = int(^uint(0) >> 1)
	type cseg struct{ x1, x2, h int }
	contour := []cseg{{0, inf, 0}}
	place := func(n *tnode, x int) int {
		top := 0
		for _, s := range contour {
			if s.x2 <= x || s.x1 >= x+n.w {
				continue
			}
			if s.h > top {
				top = s.h
			}
		}
		var out []cseg
		inserted := false
		for _, s := range contour {
			if s.x2 <= x || s.x1 >= x+n.w {
				out = append(out, s)
				continue
			}
			if s.x1 < x {
				out = append(out, cseg{s.x1, x, s.h})
			}
			if !inserted {
				out = append(out, cseg{x, x + n.w, top + n.h})
				inserted = true
			}
			if s.x2 > x+n.w {
				out = append(out, cseg{x + n.w, s.x2, s.h})
			}
		}
		contour = out
		return top
	}
	var walk func(n *tnode, x int)
	walk = func(n *tnode, x int) {
		y := place(n, x)
		pl[n.name] = geom.NewRect(x, y, n.w, n.h)
		if n.left != nil {
			walk(n.left, x+n.w)
		}
		if n.right != nil {
			walk(n.right, x)
		}
	}
	walk(root, 0)
	bb := pl.BBox()
	return pl, bb.W, bb.H
}

// Shape is one (width, height) alternative with enough provenance to
// reconstruct its placement: either a B*-tree (enhanced shapes) or a
// bounding-box combination record / leaf (regular shapes and enhanced
// fallbacks).
type Shape struct {
	W, H int

	tree *tnode // enhanced: packs to exactly W × H

	// Enhanced sum not yet materialized (inside AddESF only).
	graft *graft

	// Bounding-box record (regular shapes): a below/left-of b.
	horiz bool // true: a left of b; false: a below b
	a, b  *Shape

	// Leaf record.
	leafName string
}

// hasTree reports whether the shape carries (or will carry) a B*-tree.
func (s *Shape) hasTree() bool { return s.tree != nil || s.graft != nil }

// Place writes the shape's placement, translated by (x, y), into out.
func (s *Shape) Place(x, y int, out geom.Placement) {
	switch {
	case s.tree != nil:
		pl, _, _ := packTree(s.tree)
		for name, r := range pl {
			out[name] = r.Translate(x, y)
		}
	case s.a != nil:
		s.a.Place(x, y, out)
		if s.horiz {
			s.b.Place(x+s.a.W, y, out)
		} else {
			s.b.Place(x, y+s.a.H, out)
		}
	default:
		out[s.leafName] = geom.NewRect(x, y, s.W, s.H)
	}
}

// Placement returns the shape's placement at the origin.
func (s *Shape) Placement() geom.Placement {
	out := geom.Placement{}
	s.Place(0, 0, out)
	return out
}

// Function is a dominance-pruned, width-sorted list of shapes.
type Function struct {
	Shapes []Shape
}

// maxShapes bounds function size; beyond it, shapes are thinned evenly
// by width (keeping the extremes and the minimum-area shape). The
// paper prunes only dominated shapes; the cap is an implementation
// bound that keeps the ESF/RSF comparison tractable at 110 modules.
const maxShapes = 72

// prune removes dominated shapes: after sorting by width (then
// height), it keeps shapes with strictly decreasing height.
func prune(shapes []Shape) Function {
	if len(shapes) == 0 {
		return Function{}
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].W != shapes[j].W {
			return shapes[i].W < shapes[j].W
		}
		if shapes[i].H != shapes[j].H {
			return shapes[i].H < shapes[j].H
		}
		// Tie-break: prefer tree-carrying shapes, which keep the
		// enhanced-addition machinery available downstream.
		return shapes[i].hasTree() && !shapes[j].hasTree()
	})
	var out []Shape
	for _, s := range shapes {
		if s.W <= 0 || s.H <= 0 {
			continue
		}
		// The previous kept shape is narrower or equal; if it is also
		// no taller, it dominates s.
		if len(out) > 0 && out[len(out)-1].H <= s.H {
			continue
		}
		out = append(out, s)
	}
	if len(out) > maxShapes {
		out = thin(out)
	}
	return Function{Shapes: out}
}

// thin reduces a pruned shape list to maxShapes entries, keeping the
// extremes and the minimum-area shape and sampling the rest evenly.
func thin(shapes []Shape) []Shape {
	minArea := 0
	for i, s := range shapes {
		if int64(s.W)*int64(s.H) < int64(shapes[minArea].W)*int64(shapes[minArea].H) {
			minArea = i
		}
	}
	keep := map[int]bool{0: true, len(shapes) - 1: true, minArea: true}
	need := maxShapes - len(keep)
	for i := 1; i <= need; i++ {
		keep[i*(len(shapes)-1)/(need+1)] = true
	}
	var out []Shape
	for i, s := range shapes {
		if keep[i] {
			out = append(out, s)
		}
	}
	return out
}

// MinArea returns the shape with the smallest bounding-box area.
func (f Function) MinArea() (Shape, bool) {
	if len(f.Shapes) == 0 {
		return Shape{}, false
	}
	best := 0
	for i, s := range f.Shapes {
		if int64(s.W)*int64(s.H) < int64(f.Shapes[best].W)*int64(f.Shapes[best].H) {
			best = i
		}
	}
	return f.Shapes[best], true
}

// Leaf returns the shape function of a single module: its natural
// orientation plus, when allowRot is set, its rotation. Enhanced
// leaves carry single-node trees.
func Leaf(name string, w, h int, allowRot, enhanced bool) Function {
	mk := func(w, h int) Shape {
		s := Shape{W: w, H: h, leafName: name}
		if enhanced {
			s.tree = &tnode{name: name, w: w, h: h}
		}
		return s
	}
	shapes := []Shape{mk(w, h)}
	if allowRot && w != h {
		shapes = append(shapes, mk(h, w))
	}
	return prune(shapes)
}

// Checker validates a placement fragment against the layout
// constraints that apply to it; nil means unconstrained. It is invoked
// on every candidate enhanced sum.
type Checker func(geom.Placement) error

// AddRSF combines two shape functions with regular (bounding-box)
// additions: every shape pair, in both orientations.
func AddRSF(f, g Function) Function {
	var out []Shape
	for i := range f.Shapes {
		for j := range g.Shapes {
			a, b := &f.Shapes[i], &g.Shapes[j]
			out = append(out,
				Shape{W: a.W + b.W, H: max(a.H, b.H), horiz: true, a: a, b: b},
				Shape{W: max(a.W, b.W), H: a.H + b.H, horiz: false, a: a, b: b},
			)
		}
	}
	return prune(out)
}

// AddESF combines two enhanced shape functions: for every shape pair
// the second operand's tree is grafted onto the first at several
// attachment points and the merged tree is repacked with the contour,
// letting the operands interleave:
//
//   - the pre-order tail (left and right slots) — the first operand's
//     geometry is provably unchanged, the second may deform into its
//     notches;
//   - the left slot of the module with the largest right extent — the
//     horizontal bounding-box sum, but carrying a mergeable tree and
//     often dropping the second operand into a right-side notch;
//   - the right slot of the module with the largest top extent (when
//     free) — the vertical analogue.
//
// Merged placements are always overlap-free (contour packing); sums
// whose placement violates check are discarded. Plain bounding-box
// records are kept as safety candidates, so the result is never worse
// than AddRSF; the prune tie-break prefers tree-carrying shapes of
// equal size, keeping enhancement available at the next level.
//
// Candidates pack with b's tree hung on a's in place; only the shapes
// that survive pruning get merged trees of their own. ctx is checked
// before every shape pair; a cancelled sum returns ctx's error.
func AddESF(ctx context.Context, f, g Function, check Checker) (Function, error) {
	var out []Shape
	addBBox := func(a, b *Shape) {
		out = append(out,
			Shape{W: a.W + b.W, H: max(a.H, b.H), horiz: true, a: a, b: b},
			Shape{W: max(a.W, b.W), H: a.H + b.H, horiz: false, a: a, b: b},
		)
	}
	for i := range f.Shapes {
		a := &f.Shapes[i]
		var pts []attachSpec
		if a.tree != nil {
			pts = attachPoints(a.tree)
		}
		for j := range g.Shapes {
			if err := ctx.Err(); err != nil {
				return Function{}, err
			}
			b := &g.Shapes[j]
			addBBox(a, b)
			if a.tree == nil || b.tree == nil {
				continue
			}
			for _, at := range pts {
				slot := at.slot(a.tree)
				if *slot != nil {
					continue
				}
				*slot = b.tree
				pl, w, h := packTree(a.tree)
				*slot = nil
				if check != nil {
					if err := check(pl); err != nil {
						continue
					}
				}
				out = append(out, Shape{W: w, H: h, graft: &graft{a: a.tree, b: b.tree, at: at}})
			}
		}
	}
	sum := prune(out)
	for i := range sum.Shapes {
		if s := &sum.Shapes[i]; s.graft != nil {
			s.tree = s.graft.merge()
			s.graft = nil
		}
	}
	return sum, nil
}

// graft records an enhanced sum: tree b hung on tree a at an
// attachment point.
type graft struct {
	a, b *tnode
	at   attachSpec
}

// merge builds the grafted tree from clones of both operands.
func (g *graft) merge() *tnode {
	merged := cloneTree(g.a)
	*g.at.slot(merged) = cloneTree(g.b)
	return merged
}

// attachSpec names an attachment point by the module name and child
// side (0 = left, 1 = right), so it can be re-located in a clone.
type attachSpec struct {
	name string
	side int
}

// attachPoints selects candidate attachment points on tree a: the
// pre-order tail (both slots), the rightmost-extent module's left
// slot, the topmost-extent module's right slot, and the ends of the
// root's left and right chains (the bottom-right and top-left corners
// of the packing).
func attachPoints(a *tnode) []attachSpec {
	tail := lastPreorder(a)
	pts := []attachSpec{{tail.name, 0}, {tail.name, 1}}
	pl, _, _ := packTree(a)
	rightmost, topmost := "", ""
	bestX, bestY := -1, -1
	for name, r := range pl {
		if r.X2() > bestX || (r.X2() == bestX && name < rightmost) {
			bestX, rightmost = r.X2(), name
		}
		if r.Y2() > bestY || (r.Y2() == bestY && name < topmost) {
			bestY, topmost = r.Y2(), name
		}
	}
	add := func(name string, side int) {
		for _, p := range pts {
			if p.name == name && p.side == side {
				return
			}
		}
		pts = append(pts, attachSpec{name, side})
	}
	if rightmost != "" {
		add(rightmost, 0)
	}
	if topmost != "" {
		add(topmost, 1)
	}
	leftEnd := a
	for leftEnd.left != nil {
		leftEnd = leftEnd.left
	}
	add(leftEnd.name, 0)
	rightEnd := a
	for rightEnd.right != nil {
		rightEnd = rightEnd.right
	}
	add(rightEnd.name, 1)
	return pts
}

// slot returns the child slot the attachment point names in tree n,
// or nil when n lacks its module.
func (at attachSpec) slot(n *tnode) **tnode {
	switch {
	case n == nil:
		return nil
	case n.name != at.name:
		if s := at.slot(n.left); s != nil {
			return s
		}
		return at.slot(n.right)
	case at.side == 0:
		return &n.left
	default:
		return &n.right
	}
}
