// Package bstar implements B*-trees (Chang et al. [5]), the ordered
// binary-tree representation for compacted non-slicing floorplans used
// throughout Sections III and IV of the paper. A B*-tree node is a
// module; a left child sits immediately to the right of its parent, a
// right child sits immediately above it at the same x. Packing a tree
// into coordinates uses the standard horizontal-contour sweep in
// amortized linear time.
//
// The package provides the representation, contour packing, the three
// classic perturbations (rotate, move, swap), exhaustive enumeration
// for small instances, and the combinatorial count of distinct
// placements — n!·Catalan(n), which for 8 modules is the 57,657,600
// quoted in Section IV.
package bstar

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/geom"
)

// none marks an absent child/parent link.
const none = -1

// Tree is a B*-tree over modules 0..n-1. Node i represents module i;
// links are module ids. Widths and heights are stored per module and
// swapped by the rotate perturbation.
type Tree struct {
	Root                int
	Left, Right, Parent []int
	W, H                []int
	Rot                 []bool
}

// New returns a left-skewed chain tree (modules in a single row) over
// the given module dimensions.
func New(w, h []int) *Tree {
	n := len(w)
	if len(h) != n {
		panic("bstar: dimension slices differ in length")
	}
	t := &Tree{
		Root:   none,
		Left:   make([]int, n),
		Right:  make([]int, n),
		Parent: make([]int, n),
		W:      append([]int(nil), w...),
		H:      append([]int(nil), h...),
		Rot:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		t.Left[i], t.Right[i], t.Parent[i] = none, none, none
	}
	if n > 0 {
		t.Root = 0
		for i := 1; i < n; i++ {
			t.Left[i-1] = i
			t.Parent[i] = i - 1
		}
	}
	return t
}

// NewRandom returns a random B*-tree: modules are inserted in random
// order into random free child slots.
func NewRandom(w, h []int, rng *rand.Rand) *Tree {
	t := New(w, h)
	n := t.N()
	if n <= 1 {
		return t
	}
	// Reset links and rebuild by random insertion.
	for i := 0; i < n; i++ {
		t.Left[i], t.Right[i], t.Parent[i] = none, none, none
	}
	order := rng.Perm(n)
	t.Root = order[0]
	placed := []int{order[0]}
	for _, m := range order[1:] {
		for {
			p := placed[rng.Intn(len(placed))]
			if t.Left[p] == none && (t.Right[p] == none || rng.Intn(2) == 0) {
				t.Left[p] = m
			} else if t.Right[p] == none {
				t.Right[p] = m
			} else {
				continue
			}
			t.Parent[m] = p
			placed = append(placed, m)
			break
		}
	}
	return t
}

// N returns the number of modules.
func (t *Tree) N() int { return len(t.W) }

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{
		Root:   t.Root,
		Left:   append([]int(nil), t.Left...),
		Right:  append([]int(nil), t.Right...),
		Parent: append([]int(nil), t.Parent...),
		W:      append([]int(nil), t.W...),
		H:      append([]int(nil), t.H...),
		Rot:    append([]bool(nil), t.Rot...),
	}
}

// Validate checks structural integrity: exactly one root, consistent
// parent/child links, all modules reachable, no cycles.
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 {
		if t.Root != none {
			return fmt.Errorf("bstar: empty tree with root %d", t.Root)
		}
		return nil
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("bstar: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != none {
		return fmt.Errorf("bstar: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	seen := make([]bool, n)
	count := 0
	var walk func(m int) error
	walk = func(m int) error {
		if m == none {
			return nil
		}
		if m < 0 || m >= n {
			return fmt.Errorf("bstar: link to %d out of range", m)
		}
		if seen[m] {
			return fmt.Errorf("bstar: module %d reached twice", m)
		}
		seen[m] = true
		count++
		for _, c := range [2]int{t.Left[m], t.Right[m]} {
			if c != none {
				if t.Parent[c] != m {
					return fmt.Errorf("bstar: child %d of %d has parent %d", c, m, t.Parent[c])
				}
				if err := walk(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if count != n {
		return fmt.Errorf("bstar: %d of %d modules reachable", count, n)
	}
	return nil
}

// dims returns the effective width and height of module m, honoring
// its rotation flag.
func (t *Tree) dims(m int) (int, int) {
	if t.Rot[m] {
		return t.H[m], t.W[m]
	}
	return t.W[m], t.H[m]
}

// packFrame is one pending pre-order traversal step.
type packFrame struct{ m, x int }

// PackWorkspace holds the scratch state of one packing evaluation:
// coordinate slices, the contour, and the traversal stack. A workspace
// reused across calls to PackInto makes packing allocation-free once
// the buffers have grown to their steady-state capacity, which is what
// a simulated-annealing inner loop needs. The zero value is ready to
// use. A workspace must not be shared between concurrent packings.
type PackWorkspace struct {
	x, y    []int
	contour Contour
	stack   []packFrame
}

// Contour returns the contour of the workspace's last packing: the
// packed tree's top profile, read with Profile. It is overwritten by
// the next packing on the workspace.
func (ws *PackWorkspace) Contour() *Contour { return &ws.contour }

// ensure sizes the coordinate buffers for n modules.
func (ws *PackWorkspace) ensure(n int) {
	if cap(ws.x) < n {
		ws.x = make([]int, n)
		ws.y = make([]int, n)
	}
	ws.x = ws.x[:n]
	ws.y = ws.y[:n]
}

// PackInto computes lower-left coordinates for all modules by
// pre-order traversal with a horizontal contour, the standard B*-tree
// packing, using ws for every intermediate buffer. The returned slices
// are owned by the workspace and overwritten by the next PackInto on
// the same workspace.
func (t *Tree) PackInto(ws *PackWorkspace) (x, y []int) {
	n := t.N()
	ws.ensure(n)
	x, y = ws.x, ws.y
	if n == 0 || t.Root == none {
		for i := range x {
			x[i], y[i] = 0, 0
		}
		return x, y
	}
	ws.contour.Reset()
	stack := append(ws.stack[:0], packFrame{t.Root, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w, h := t.dims(f.m)
		x[f.m] = f.x
		y[f.m] = ws.contour.Place(f.x, f.x+w, h)
		// Push right first so left is processed first (pre-order):
		// left child at the parent's right edge, right child at the
		// parent's x.
		if r := t.Right[f.m]; r != none {
			stack = append(stack, packFrame{r, f.x})
		}
		if l := t.Left[f.m]; l != none {
			stack = append(stack, packFrame{l, f.x + w})
		}
	}
	ws.stack = stack[:0] // retain grown capacity
	return x, y
}

// Pack computes lower-left coordinates for all modules. It is a
// convenience wrapper over PackInto with a one-shot workspace: the
// returned slices are freshly allocated and owned by the caller, and
// all contour scratch is allocated once per call rather than once per
// placed module. Hot loops should hold a PackWorkspace and call
// PackInto instead.
func (t *Tree) Pack() (x, y []int) {
	var ws PackWorkspace
	return t.PackInto(&ws)
}

// Placement packs the tree and returns a named placement. names is
// indexed by module id.
func (t *Tree) Placement(names []string) (geom.Placement, error) {
	if len(names) != t.N() {
		return nil, fmt.Errorf("bstar: %d names for %d modules", len(names), t.N())
	}
	x, y := t.Pack()
	p := geom.Placement{}
	for i := 0; i < t.N(); i++ {
		w, h := t.dims(i)
		p[names[i]] = geom.NewRect(x[i], y[i], w, h)
	}
	return p, nil
}

// Span packs the tree and returns the bounding width and height.
func (t *Tree) Span() (int, int) {
	x, y := t.Pack()
	var tw, th int
	for i := 0; i < t.N(); i++ {
		w, h := t.dims(i)
		if x[i]+w > tw {
			tw = x[i] + w
		}
		if y[i]+h > th {
			th = y[i] + h
		}
	}
	return tw, th
}

// Area packs the tree and returns the bounding-box area.
func (t *Tree) Area() int64 {
	w, h := t.Span()
	return int64(w) * int64(h)
}

// CountPlacements returns the number of distinct B*-trees over n
// modules: n! · Catalan(n). For n = 8 this is 57,657,600, the figure
// quoted in Section IV of the paper.
func CountPlacements(n int) *big.Int {
	fact := new(big.Int).MulRange(1, int64(n))
	// Catalan(n) = C(2n, n)/(n+1).
	cat := new(big.Int).Binomial(int64(2*n), int64(n))
	cat.Div(cat, big.NewInt(int64(n+1)))
	return fact.Mul(fact, cat)
}
