// Package route provides a grid-based maze router with symmetric-pair
// routing. Section II motivates symmetry constraints by parasitic
// matching "of symmetric placement (and routing, as well)": the two
// halves of a differential signal path must see the same wire
// parasitics. This router makes that concrete: a net and its matched
// counterpart are routed as exact mirror images about the symmetry
// axis, so their lengths — and therefore wire resistance and
// capacitance — are identical by construction.
//
// Routing is Lee's algorithm (breadth-first wavefront) on a unit grid;
// module rectangles are obstacles, and every routed net becomes an
// obstacle for later nets (single-layer model).
package route

import (
	"fmt"

	"repro/internal/geom"
)

// Grid is the routing plane.
type Grid struct {
	W, H    int
	blocked []bool
}

// NewGrid returns an empty routing grid of the given extent.
func NewGrid(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic("route: non-positive grid")
	}
	return &Grid{W: w, H: h, blocked: make([]bool, w*h)}
}

// FromPlacement builds a grid covering the placement's bounding box
// plus a routing margin, blocking every module cell.
func FromPlacement(p geom.Placement, margin int) *Grid {
	bb := p.BBox()
	g := NewGrid(bb.W+2*margin, bb.H+2*margin)
	for _, r := range p {
		g.Block(r.Translate(margin-bb.X, margin-bb.Y))
	}
	return g
}

func (g *Grid) idx(x, y int) int { return y*g.W + x }

// In reports whether the cell lies on the grid.
func (g *Grid) In(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// Block marks all cells covered by r as obstacles.
func (g *Grid) Block(r geom.Rect) {
	for y := max(0, r.Y); y < min(g.H, r.Y2()); y++ {
		for x := max(0, r.X); x < min(g.W, r.X2()); x++ {
			g.blocked[g.idx(x, y)] = true
		}
	}
}

// Blocked reports whether a cell is an obstacle (off-grid counts as
// blocked).
func (g *Grid) Blocked(x, y int) bool {
	if !g.In(x, y) {
		return true
	}
	return g.blocked[g.idx(x, y)]
}

// Path is one routed net: the cells it occupies.
type Path struct {
	Net   string
	Cells []geom.Point
}

// Length returns the number of cells, a proxy for wire length (and
// therefore wire parasitics).
func (p Path) Length() int { return len(p.Cells) }

// Route connects the pins of a net with Lee wavefront expansion,
// multi-pin nets Prim-style: each new pin is reached by a shortest
// path from the already-connected tree. The routed cells are marked as
// obstacles for subsequent nets. Pins must be unblocked cells.
func (g *Grid) Route(name string, pins []geom.Point) (Path, error) {
	if len(pins) < 2 {
		return Path{}, fmt.Errorf("route: net %q needs at least 2 pins", name)
	}
	for _, p := range pins {
		if g.Blocked(p.X, p.Y) {
			return Path{}, fmt.Errorf("route: net %q pin %v is blocked", name, p)
		}
	}
	tree := map[geom.Point]bool{pins[0]: true}
	var cells []geom.Point
	cells = append(cells, pins[0])
	for _, target := range pins[1:] {
		if tree[target] {
			continue
		}
		seg, err := g.wavefront(tree, target)
		if err != nil {
			return Path{}, fmt.Errorf("route: net %q: %v", name, err)
		}
		for _, c := range seg {
			if !tree[c] {
				tree[c] = true
				cells = append(cells, c)
			}
		}
	}
	// Occupy the routed cells.
	for _, c := range cells {
		g.blocked[g.idx(c.X, c.Y)] = true
	}
	return Path{Net: name, Cells: cells}, nil
}

// wavefront expands BFS from every tree cell until target is reached,
// then backtracks the shortest path.
func (g *Grid) wavefront(tree map[geom.Point]bool, target geom.Point) ([]geom.Point, error) {
	const unseen = -1
	dist := make([]int, g.W*g.H)
	for i := range dist {
		dist[i] = unseen
	}
	var frontier []geom.Point
	for c := range tree {
		dist[g.idx(c.X, c.Y)] = 0
		frontier = append(frontier, c)
	}
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	found := false
	for len(frontier) > 0 && !found {
		var next []geom.Point
		for _, c := range frontier {
			d := dist[g.idx(c.X, c.Y)]
			for _, dir := range dirs {
				nx, ny := c.X+dir[0], c.Y+dir[1]
				if !g.In(nx, ny) || dist[g.idx(nx, ny)] != unseen {
					continue
				}
				if g.Blocked(nx, ny) && !(nx == target.X && ny == target.Y) {
					continue
				}
				dist[g.idx(nx, ny)] = d + 1
				if nx == target.X && ny == target.Y {
					found = true
				}
				next = append(next, geom.Point{X: nx, Y: ny})
			}
		}
		frontier = next
	}
	if dist[g.idx(target.X, target.Y)] == unseen {
		return nil, fmt.Errorf("no path to %v", target)
	}
	// Backtrack from target to any zero-distance cell.
	var path []geom.Point
	cur := target
	for dist[g.idx(cur.X, cur.Y)] > 0 {
		path = append(path, cur)
		d := dist[g.idx(cur.X, cur.Y)]
		moved := false
		for _, dir := range dirs {
			nx, ny := cur.X+dir[0], cur.Y+dir[1]
			if g.In(nx, ny) && dist[g.idx(nx, ny)] == d-1 {
				cur = geom.Point{X: nx, Y: ny}
				moved = true
				break
			}
		}
		if !moved {
			return nil, fmt.Errorf("route: internal backtrack failure at %v", cur)
		}
	}
	path = append(path, cur)
	return path, nil
}

// MirrorCell mirrors a cell about the vertical axis at axis2/2 in
// placement coordinates: the cell center x+0.5 maps to axis2-x-0.5,
// i.e. cell x maps to axis2-1-x.
func MirrorCell(c geom.Point, axis2 int) geom.Point {
	return geom.Point{X: axis2 - 1 - c.X, Y: c.Y}
}

// RouteSymmetricPair routes net A, mirrors its path about the vertical
// axis (doubled coordinate axis2), and claims the mirrored path for
// net B. The pins of B must be exactly the mirrors of A's pins, and
// the mirrored cells must be free; otherwise an error is returned and
// the grid is left unchanged. On success both paths have identical
// length — matched wire parasitics by construction.
func (g *Grid) RouteSymmetricPair(nameA string, pinsA []geom.Point, nameB string, pinsB []geom.Point, axis2 int) (Path, Path, error) {
	if len(pinsA) != len(pinsB) {
		return Path{}, Path{}, fmt.Errorf("route: pair (%s,%s) pin counts differ", nameA, nameB)
	}
	want := map[geom.Point]bool{}
	for _, p := range pinsA {
		want[MirrorCell(p, axis2)] = true
	}
	for _, p := range pinsB {
		if !want[p] {
			return Path{}, Path{}, fmt.Errorf("route: pin %v of %s is not the mirror of a pin of %s", p, nameB, nameA)
		}
	}
	// Route A on a scratch copy first so failures leave g untouched.
	scratch := g.clone()
	pa, err := scratch.Route(nameA, pinsA)
	if err != nil {
		return Path{}, Path{}, err
	}
	// Mirror and verify B's cells on the scratch grid (A's cells are
	// now blocked there; B must not collide with A or anything else).
	cellsB := make([]geom.Point, len(pa.Cells))
	for i, c := range pa.Cells {
		m := MirrorCell(c, axis2)
		if !scratch.In(m.X, m.Y) || scratch.Blocked(m.X, m.Y) {
			return Path{}, Path{}, fmt.Errorf("route: mirrored cell %v of %s is blocked", m, nameB)
		}
		cellsB[i] = m
	}
	// Commit both paths to the real grid.
	g.blocked = scratch.blocked
	for _, c := range cellsB {
		g.blocked[g.idx(c.X, c.Y)] = true
	}
	return pa, Path{Net: nameB, Cells: cellsB}, nil
}

func (g *Grid) clone() *Grid {
	return &Grid{W: g.W, H: g.H, blocked: append([]bool(nil), g.blocked...)}
}

// Connected reports whether the path cells form one 4-connected
// component containing all given pins (a routed net sanity check).
func (p Path) Connected(pins []geom.Point) bool {
	if len(p.Cells) == 0 {
		return false
	}
	set := map[geom.Point]bool{}
	for _, c := range p.Cells {
		set[c] = true
	}
	for _, pin := range pins {
		if !set[pin] {
			return false
		}
	}
	// BFS over the cell set.
	seen := map[geom.Point]bool{p.Cells[0]: true}
	frontier := []geom.Point{p.Cells[0]}
	for len(frontier) > 0 {
		var next []geom.Point
		for _, c := range frontier {
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				n := geom.Point{X: c.X + d[0], Y: c.Y + d[1]}
				if set[n] && !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return len(seen) == len(set)
}
