// Package geom provides the low-level planar geometry used by every
// placement representation in this repository: points, rectangles,
// placements (named rectangles), bounding boxes, overlap tests and the
// symmetry-axis arithmetic needed to validate analog layout constraints.
//
// All coordinates are integers ("database units"; think nanometers or an
// arbitrary manufacturing grid). Integer coordinates make packing
// algorithms exact and make symmetry checks robust: a symmetric pair is
// checked with doubled coordinates so that axes that fall between grid
// lines need no floating point.
package geom

import (
	"fmt"
	"sort"
)

// Point is a location on the integer grid.
type Point struct {
	X, Y int
}

// Add returns the translate of p by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle given by its lower-left corner and
// its width and height. A Rect with non-positive W or H is degenerate;
// packing code never produces one, but validators tolerate them.
type Rect struct {
	X, Y int // lower-left corner
	W, H int // extent; W,H >= 0 for well-formed rectangles
}

// NewRect returns the rectangle with lower-left corner (x, y), width w
// and height h.
func NewRect(x, y, w, h int) Rect { return Rect{x, y, w, h} }

// X2 returns the x coordinate of the right edge.
func (r Rect) X2() int { return r.X + r.W }

// Y2 returns the y coordinate of the top edge.
func (r Rect) Y2() int { return r.Y + r.H }

// Area returns the area of r. Degenerate rectangles have zero area.
func (r Rect) Area() int64 {
	if r.W <= 0 || r.H <= 0 {
		return 0
	}
	return int64(r.W) * int64(r.H)
}

// CenterX2 returns twice the x coordinate of the center of r. Doubling
// keeps the value integral when the center lies on a half-grid point.
func (r Rect) CenterX2() int { return 2*r.X + r.W }

// CenterY2 returns twice the y coordinate of the center of r.
func (r Rect) CenterY2() int { return 2*r.Y + r.H }

// Translate returns r moved by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X + dx, r.Y + dy, r.W, r.H}
}

// Intersects reports whether r and s overlap in a region of positive
// area. Rectangles that merely share an edge or corner do not intersect.
func (r Rect) Intersects(s Rect) bool {
	return r.X < s.X2() && s.X < r.X2() && r.Y < s.Y2() && s.Y < r.Y2()
}

// Intersection returns the overlapping region of r and s, and whether
// the overlap has positive area.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	x1 := max(r.X, s.X)
	y1 := max(r.Y, s.Y)
	x2 := min(r.X2(), s.X2())
	y2 := min(r.Y2(), s.Y2())
	if x1 >= x2 || y1 >= y2 {
		return Rect{}, false
	}
	return Rect{x1, y1, x2 - x1, y2 - y1}, true
}

// Union returns the smallest rectangle containing both r and s.
// Degenerate inputs (zero W and H) are treated as empty and ignored if
// the other operand is non-degenerate.
func (r Rect) Union(s Rect) Rect {
	if r.W == 0 && r.H == 0 {
		return s
	}
	if s.W == 0 && s.H == 0 {
		return r
	}
	x1 := min(r.X, s.X)
	y1 := min(r.Y, s.Y)
	x2 := max(r.X2(), s.X2())
	y2 := max(r.Y2(), s.Y2())
	return Rect{x1, y1, x2 - x1, y2 - y1}
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	return r.X <= s.X && r.Y <= s.Y && r.X2() >= s.X2() && r.Y2() >= s.Y2()
}

// MirrorX returns r mirrored about the vertical line x = axis2/2, where
// axis2 is twice the axis coordinate (so axes on half-grid points stay
// exact). The mirror of a point x is axis2 - x; the right edge of r
// becomes the left edge of the image.
func (r Rect) MirrorX(axis2 int) Rect {
	return Rect{axis2 - r.X2(), r.Y, r.W, r.H}
}

// MirrorY returns r mirrored about the horizontal line y = axis2/2.
func (r Rect) MirrorY(axis2 int) Rect {
	return Rect{r.X, axis2 - r.Y2(), r.W, r.H}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %dx%d]", r.X, r.Y, r.W, r.H)
}

// Placement maps module names to their placed rectangles. It is the
// common output format of every placer in this repository.
type Placement map[string]Rect

// Clone returns a deep copy of p.
func (p Placement) Clone() Placement {
	q := make(Placement, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// Names returns the module names in sorted order, for deterministic
// iteration and printing.
func (p Placement) Names() []string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// BBox returns the bounding rectangle of all modules in p. The bounding
// box of an empty placement is the zero Rect.
func (p Placement) BBox() Rect {
	var bb Rect
	first := true
	for _, r := range p {
		if first {
			bb = r
			first = false
			continue
		}
		bb = bb.Union(r)
	}
	return bb
}

// Area returns the area of the bounding box of p.
func (p Placement) Area() int64 { return p.BBox().Area() }

// ModuleArea returns the sum of module areas (the denominator of the
// "area usage" metric of Table I in the paper).
func (p Placement) ModuleArea() int64 {
	var a int64
	for _, r := range p {
		a += r.Area()
	}
	return a
}

// AreaUsage returns bounding-box area divided by total module area, the
// metric reported in Table I (1.0 means a perfectly packed placement).
// It returns 0 for an empty placement.
func (p Placement) AreaUsage() float64 {
	m := p.ModuleArea()
	if m == 0 {
		return 0
	}
	return float64(p.Area()) / float64(m)
}

// Overlaps returns the pairs of module names whose rectangles overlap
// with positive area, each pair in sorted name order and the list
// sorted lexicographically. A legal placement returns an empty slice.
//
// The check is a plane sweep over the left edges with an active set
// pruned by right edge: near-linear on legal and almost-legal
// placements instead of the naive n²/2 pairs of map lookups, which
// profiling showed dominating whole solves from n ≈ 10⁴ up.
func (p Placement) Overlaps() [][2]string {
	names := p.Names()
	n := len(names)
	rects := make([]Rect, n)
	for i, nm := range names {
		rects[i] = p[nm]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rects[order[a]].X < rects[order[b]].X })
	var out [][2]string
	active := make([]int, 0, 16)
	for _, i := range order {
		r := rects[i]
		keep := active[:0]
		for _, j := range active {
			if rects[j].X2() <= r.X {
				continue // ended before the sweep line; drop
			}
			keep = append(keep, j)
			// The prune above only discards definite non-overlaps, so
			// the full Intersects keeps degenerate-rectangle semantics
			// identical to the pairwise check.
			if r.Intersects(rects[j]) {
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				out = append(out, [2]string{names[a], names[b]})
			}
		}
		active = append(keep, i)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Legal reports whether no two modules overlap.
func (p Placement) Legal() bool { return len(p.Overlaps()) == 0 }

// Translate moves every module by (dx, dy).
func (p Placement) Translate(dx, dy int) {
	for k, r := range p {
		p[k] = r.Translate(dx, dy)
	}
}

// Normalize translates p so its bounding box has lower-left corner at
// the origin.
func (p Placement) Normalize() {
	if len(p) == 0 {
		return
	}
	bb := p.BBox()
	p.Translate(-bb.X, -bb.Y)
}

// AspectRatio returns height divided by width of the bounding box, or 0
// when the width is zero.
func (p Placement) AspectRatio() float64 {
	bb := p.BBox()
	if bb.W == 0 {
		return 0
	}
	return float64(bb.H) / float64(bb.W)
}

// Deadspace returns bounding-box area minus module area, the unused
// silicon the paper's placers minimize.
func (p Placement) Deadspace() int64 { return p.Area() - p.ModuleArea() }

// SymmetricPairAboutX reports whether rectangles a and b are mirror
// images about the vertical line x = axis2/2 (axis2 = doubled axis
// coordinate): equal sizes, equal vertical position, and horizontal
// centers that average to the axis.
func SymmetricPairAboutX(a, b Rect, axis2 int) bool {
	return a.W == b.W && a.H == b.H && a.Y == b.Y &&
		a.CenterX2()+b.CenterX2() == 2*axis2
}

// SelfSymmetricAboutX reports whether rectangle a is centered on the
// vertical line x = axis2/2.
func SelfSymmetricAboutX(a Rect, axis2 int) bool {
	return a.CenterX2() == axis2
}

// SymmetricPairAboutY reports whether a and b are mirror images about
// the horizontal line y = axis2/2.
func SymmetricPairAboutY(a, b Rect, axis2 int) bool {
	return a.W == b.W && a.H == b.H && a.X == b.X &&
		a.CenterY2()+b.CenterY2() == 2*axis2
}

// SelfSymmetricAboutY reports whether a is centered on the horizontal
// line y = axis2/2.
func SelfSymmetricAboutY(a Rect, axis2 int) bool {
	return a.CenterY2() == axis2
}

// HPWL returns the half-perimeter wirelength of a net whose pins are at
// the centers of the named rectangles (doubled-coordinate convention is
// folded back by halving at the end; the result is exact to one unit).
func HPWL(p Placement, pins []string) int {
	if len(pins) == 0 {
		return 0
	}
	minX, maxX := 1<<62, -(1 << 62)
	minY, maxY := 1<<62, -(1 << 62)
	found := false
	for _, name := range pins {
		r, ok := p[name]
		if !ok {
			continue
		}
		found = true
		cx, cy := r.CenterX2(), r.CenterY2()
		minX = min(minX, cx)
		maxX = max(maxX, cx)
		minY = min(minY, cy)
		maxY = max(maxY, cy)
	}
	if !found {
		return 0
	}
	return (maxX - minX + maxY - minY) / 2
}
