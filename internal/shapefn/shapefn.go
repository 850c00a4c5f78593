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

	"repro/internal/bstar"
	"repro/internal/geom"
)

// tnode is a pointer-based B*-tree node carrying a named module, used
// for enhanced shapes. (Package bstar's dense-id trees cover whole
// module sets; shape composition needs trees over arbitrary subsets,
// which pointers express directly.) Pointer trees pack on the same
// bstar.Contour as dense ones (packTree); a basic set's enumerated
// dense trees become pointer trees only when they survive pruning.
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

// packTree packs a pointer B*-tree with the standard contour sweep on
// c, reports every module's lower-left corner to at, and returns the
// bounding width and height.
func packTree(root *tnode, c *bstar.Contour, at func(n *tnode, x, y int)) (w, h int) {
	c.Reset()
	var walk func(n *tnode, x int)
	walk = func(n *tnode, x int) {
		y := c.Place(x, x+n.w, n.h)
		at(n, x, y)
		w, h = max(w, x+n.w), max(h, y+n.h)
		if n.left != nil {
			walk(n.left, x+n.w)
		}
		if n.right != nil {
			walk(n.right, x)
		}
	}
	if root != nil {
		walk(root, 0)
	}
	return w, h
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
		var c bstar.Contour
		packTree(s.tree, &c, func(n *tnode, nx, ny int) {
			out[n.name] = geom.NewRect(x+nx, y+ny, n.w, n.h)
		})
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

// prune removes dominated shapes (see pareto) and thins the rest to
// maxShapes.
func prune(shapes []Shape) Function {
	out := pareto(shapes, func(s *Shape) (int, int, bool) { return s.W, s.H, s.hasTree() })
	if len(out) > maxShapes {
		out = thin(out)
	}
	return Function{Shapes: out}
}

// pareto sorts shapes by width, then height, then tree-carrying first,
// and keeps those with strictly decreasing height: the previous kept
// shape is narrower or equal, so if it is also no taller, it dominates.
// Tree-carrying shapes win ties because they keep the
// enhanced-addition machinery available downstream. dims reads a
// shape's width, height and whether it carries a tree; the order
// sort.Slice leaves equal shapes in depends only on those and on the
// input order, whatever the element type.
func pareto[S any](shapes []S, dims func(*S) (w, h int, tree bool)) []S {
	sort.Slice(shapes, func(i, j int) bool {
		wi, hi, ti := dims(&shapes[i])
		wj, hj, tj := dims(&shapes[j])
		if wi != wj {
			return wi < wj
		}
		if hi != hj {
			return hi < hj
		}
		return ti && !tj
	})
	var out []S
	last := 0
	for i := range shapes {
		w, h, _ := dims(&shapes[i])
		if w <= 0 || h <= 0 || (len(out) > 0 && last <= h) {
			continue
		}
		out = append(out, shapes[i])
		last = h
	}
	return out
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
	var c bstar.Contour
	// Every candidate covers the same modules, so one placement map,
	// overwritten per candidate, serves every check.
	pl := geom.Placement{}
	record := func(n *tnode, x, y int) { pl[n.name] = geom.NewRect(x, y, n.w, n.h) }
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
			pts = attachPoints(a.tree, &c)
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
				w, h := packTree(a.tree, &c, record)
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
func attachPoints(a *tnode, c *bstar.Contour) []attachSpec {
	tail := lastPreorder(a)
	pts := []attachSpec{{tail.name, 0}, {tail.name, 1}}
	rightmost, topmost := "", ""
	bestX, bestY := -1, -1
	packTree(a, c, func(n *tnode, x, y int) {
		if x2 := x + n.w; x2 > bestX || (x2 == bestX && n.name < rightmost) {
			bestX, rightmost = x2, n.name
		}
		if y2 := y + n.h; y2 > bestY || (y2 == bestY && n.name < topmost) {
			bestY, topmost = y2, n.name
		}
	})
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
