// Package asf implements automatically symmetric-feasible B*-trees
// (ASF-B*-trees, Lin/Lin [16]), which model the placement of one
// symmetry group as a "symmetry island": a placement that is mirror-
// symmetric about a vertical axis by construction, so that no
// symmetric-feasibility check is ever needed during annealing.
//
// The tree packs only representatives of the group's right half:
// each symmetric pair contributes its right member (full size), each
// self-symmetric module contributes its right half (half width). The
// representative tree is packed with the ordinary B*-tree contour; the
// left half of the island is the exact mirror image. Self-symmetric
// representatives must sit on the axis, which in B*-tree terms means
// they form the chain of right children starting at the root (a right
// child inherits its parent's x, and the root is at x = 0).
package asf

import (
	"fmt"
	"math/rand"

	"repro/internal/bstar"
)

// Pair is one symmetric pair: left and right member names share
// dimensions w × h.
type Pair struct {
	Left, Right string
	W, H        int
}

// Self is one self-symmetric module; its width must be even.
type Self struct {
	Name string
	W, H int
}

// Island is the ASF-B*-tree for one symmetry group.
type Island struct {
	pairs []Pair
	selfs []Self
	// reps is the representative B*-tree: module ids 0..len(selfs)-1
	// are self representatives (in chain order), the rest are pair
	// representatives (pair i at id len(selfs)+i).
	reps *bstar.Tree

	// Reusable scratch, never copied by Clone: the Perturb rollback
	// buffer and the chain-membership marks of validChain.
	saved   bstar.TreeState
	onChain []bool
}

// New builds an island with a canonical initial tree: self
// representatives chained as right children from the root, pair
// representatives chained as left children below the last self (or
// from the root when there are no selfs).
func New(pairs []Pair, selfs []Self) (*Island, error) {
	if len(pairs) == 0 && len(selfs) == 0 {
		return nil, fmt.Errorf("asf: empty symmetry group")
	}
	for _, s := range selfs {
		if s.W%2 != 0 {
			return nil, fmt.Errorf("asf: self-symmetric module %q has odd width %d", s.Name, s.W)
		}
	}
	for _, p := range pairs {
		if p.W <= 0 || p.H <= 0 {
			return nil, fmt.Errorf("asf: pair (%s,%s) has non-positive size", p.Left, p.Right)
		}
	}
	isl := &Island{pairs: pairs, selfs: selfs}
	isl.reps = bstar.New(isl.repDims())
	t := isl.reps
	n := t.N()
	for i := 0; i < n; i++ {
		t.Left[i], t.Right[i], t.Parent[i] = -1, -1, -1
	}
	ns := len(selfs)
	if ns > 0 {
		t.Root = 0
		for i := 1; i < ns; i++ {
			t.Right[i-1] = i
			t.Parent[i] = i - 1
		}
		// Pair reps as a left chain under the first self.
		prev := 0
		for i := 0; i < len(pairs); i++ {
			m := ns + i
			t.Left[prev] = m
			t.Parent[m] = prev
			prev = m
		}
	} else {
		t.Root = 0
		for i := 1; i < len(pairs); i++ {
			t.Left[i-1] = i
			t.Parent[i] = i - 1
		}
	}
	return isl, nil
}

// repDims returns widths and heights for the representative modules.
func (isl *Island) repDims() ([]int, []int) {
	n := len(isl.selfs) + len(isl.pairs)
	w := make([]int, n)
	h := make([]int, n)
	for i, s := range isl.selfs {
		w[i], h[i] = s.W/2, s.H
	}
	for i, p := range isl.pairs {
		w[len(isl.selfs)+i], h[len(isl.selfs)+i] = p.W, p.H
	}
	return w, h
}

// Size returns the number of modules in the full island (2p + s).
func (isl *Island) Size() int { return 2*len(isl.pairs) + len(isl.selfs) }

// validChain reports whether all self representatives lie on the
// right-child chain from the root (so they pack at x = 0).
func (isl *Island) validChain() bool {
	ns := len(isl.selfs)
	if ns == 0 {
		return true
	}
	n := isl.reps.N()
	if cap(isl.onChain) < n {
		isl.onChain = make([]bool, n)
	}
	onChain := isl.onChain[:n]
	for i := range onChain {
		onChain[i] = false
	}
	steps := 0
	for m := isl.reps.Root; m != -1; m = isl.reps.Right[m] {
		onChain[m] = true
		if steps++; steps > n {
			return false
		}
	}
	for i := 0; i < ns; i++ {
		if !onChain[i] {
			return false
		}
	}
	return true
}

// PackInto packs the island into the dense slices x, y, w, h, indexed
// like Names(), with the lower-left corner of its bounding box at the
// origin, and returns the island's width: twice the right half's, with
// the axis in the middle. Right members and right halves pack on ws
// with the ordinary B*-tree contour; left members are their exact
// mirror images. Once ws has grown, packing allocates nothing.
func (isl *Island) PackInto(ws *bstar.PackWorkspace, x, y, w, h []int) (int, error) {
	if !isl.validChain() {
		return 0, fmt.Errorf("asf: self-symmetric representatives left the axis chain")
	}
	rx, ry := isl.reps.PackInto(ws)
	half := 0
	for m := range rx {
		rw := isl.reps.W[m]
		if isl.reps.Rot[m] {
			rw = isl.reps.H[m]
		}
		half = max(half, rx[m]+rw)
	}
	ns, np := len(isl.selfs), len(isl.pairs)
	for i, s := range isl.selfs {
		if rx[i] != 0 {
			return 0, fmt.Errorf("asf: self representative %q packed at x=%d, want 0", s.Name, rx[i])
		}
		// Full module centered on the axis.
		k := 2*np + i
		x[k], y[k], w[k], h[k] = half-s.W/2, ry[i], s.W, s.H
	}
	for i, p := range isl.pairs {
		m := ns + i
		pw, ph := p.W, p.H
		if isl.reps.Rot[m] {
			pw, ph = ph, pw
		}
		x[2*i], y[2*i], w[2*i], h[2*i] = half-rx[m]-pw, ry[m], pw, ph
		x[2*i+1], y[2*i+1], w[2*i+1], h[2*i+1] = half+rx[m], ry[m], pw, ph
	}
	return 2 * half, nil
}

// Profile appends the top profile of the island last packed on ws,
// over [0, width), to dst and returns the extended slice: the
// representative tree's contour and its mirror image. B*-tree
// x-intervals leave no gaps, so the right half's profile starts at the
// axis, and its first segment and that segment's mirror image merge
// into one across it.
func Profile(ws *bstar.PackWorkspace, width int, dst []bstar.Seg) []bstar.Seg {
	half, start := width/2, len(dst)
	dst = ws.Contour().Profile(dst, half)
	r, first := len(dst)-start, dst[start]
	// [R0 … Rr-1] becomes [mirror(Rr-1) … mirror(R1), R0 across the
	// axis, R1 … Rr-1], each right segment shifted by the axis.
	dst = append(dst, dst[start+1:]...)
	p := dst[start:]
	for k := 1; k < r; k++ {
		s := p[r-1+k]
		p[r-1+k] = bstar.Seg{X1: half + s.X1, X2: half + s.X2, H: s.H}
		p[r-1-k] = bstar.Seg{X1: half - s.X2, X2: half - s.X1, H: s.H}
	}
	p[r-1] = bstar.Seg{X1: half - first.X2, X2: half + first.X2, H: first.H}
	return dst
}

// Perturb applies one random island-preserving move: rotate a pair
// (both members), swap two pair representatives, move a pair
// representative, or swap adjacent self representatives in the axis
// chain. The island invariant (selfs on the axis chain) is preserved;
// moves that would break it are retried.
func (isl *Island) Perturb(rng *rand.Rand) {
	ns, np := len(isl.selfs), len(isl.pairs)
	t := isl.reps
	// One save covers all attempts: a failed attempt restores the
	// tree to exactly this state before retrying.
	t.SaveState(&isl.saved)
	for attempt := 0; attempt < 24; attempt++ {
		switch op := rng.Intn(4); {
		case op == 0 && np > 0: // rotate a pair rep
			t.Rotate(ns + rng.Intn(np))
		case op == 1 && np >= 2: // swap two pair reps
			a := ns + rng.Intn(np)
			b := ns + rng.Intn(np-1)
			if b >= a {
				b++
			}
			t.SwapNodes(a, b)
		case op == 2 && np > 0: // move a pair rep
			m := ns + rng.Intn(np)
			t.Delete(m)
			reattach(t, m, rng)
		case op == 3 && ns >= 2: // swap two selfs in the chain
			a := rng.Intn(ns)
			b := rng.Intn(ns - 1)
			if b >= a {
				b++
			}
			// Equal-width selfs can swap ids freely; different widths
			// still stay on the chain, so a node swap is safe.
			t.SwapNodes(a, b)
		default:
			continue
		}
		if isl.validChain() {
			return
		}
		// Restore and retry.
		t.LoadState(&isl.saved)
	}
}

// reattach inserts detached module m at a random free slot that keeps
// the self chain intact: left-child slots anywhere, or the right slot
// of the last chain node / of pair representatives.
func reattach(t *bstar.Tree, m int, rng *rand.Rand) {
	n := t.N()
	type slot struct{ p, side int }
	var slots []slot
	for p := 0; p < n; p++ {
		if p == m {
			continue
		}
		if t.Left[p] == -1 {
			slots = append(slots, slot{p, 0})
		}
		if t.Right[p] == -1 {
			slots = append(slots, slot{p, 1})
		}
	}
	if len(slots) == 0 {
		// m was the tree's only node: it is the root again.
		t.Root = m
		return
	}
	s := slots[rng.Intn(len(slots))]
	t.InsertChild(s.p, m, s.side)
}

// SaveState copies the island's mutable search state (its
// representative tree) into s, for the exact-undo protocol. The pair
// and self sets are fixed for the island's lifetime and not saved.
func (isl *Island) SaveState(s *bstar.TreeState) { isl.reps.SaveState(s) }

// LoadState restores a state previously captured with SaveState.
func (isl *Island) LoadState(s *bstar.TreeState) { isl.reps.LoadState(s) }

// Clone returns a deep copy of the island.
func (isl *Island) Clone() *Island {
	return &Island{
		pairs: append([]Pair(nil), isl.pairs...),
		selfs: append([]Self(nil), isl.selfs...),
		reps:  isl.reps.Clone(),
	}
}

// Names returns all module names in the island.
func (isl *Island) Names() []string {
	var out []string
	for _, p := range isl.pairs {
		out = append(out, p.Left, p.Right)
	}
	for _, s := range isl.selfs {
		out = append(out, s.Name)
	}
	return out
}
