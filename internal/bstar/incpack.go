package bstar

// Incremental B*-tree packing by prefix reuse.
//
// Contour packing is a pre-order traversal: step s places module m_s
// at an x fixed by its parent frame and a y read from the contour.
// Every input to step s — the module id, its x, its effective dims —
// is a pure function of the tree and the steps before it, so if the
// first L steps of this pack are identical to the first L steps of
// the previous pack, their coordinates and the contour state after
// them are identical too, and only steps L..n−1 need to touch the
// contour.
//
// IncPackWorkspace therefore caches the per-step record (module, x,
// width, height) of the last pack plus contour checkpoints on a
// coarse grid. PackIncInto walks the traversal comparing records —
// a few integer compares per step, no contour work — until the first
// mismatch, restores the nearest checkpoint at or before it, replays
// the few cached records between checkpoint and mismatch, and packs
// normally from there while refreshing the cache.
//
// The comparison is against the live tree, so no dirty-window
// bookkeeping is needed: any perturbation — rotate, move, swap, undo,
// restore — is detected at the first step it changes. A move that
// disturbs an early step degrades to a full pack; the win comes from
// the average case, where the perturbed subtree sits halfway through
// the traversal and the whole prefix costs only compares. Unlike the
// sequence-pair incremental packer there is no early exit after the
// disturbance (a changed contour can shift every later y), so the
// expected speedup is the ~2× of halving the contour work, not an
// order of magnitude.
type IncPackWorkspace struct {
	PackWorkspace
	valid bool
	// Per-step traversal records of the last pack: module id, x, and
	// effective dimensions, indexed by pre-order step.
	pm, px, pw, ph []int
	// cks[g] is the contour before step g·ck.
	cks [][]Seg
	ck  int
}

// incCkStride returns the checkpoint grid stride for n modules: wide
// enough that checkpoint copies stay cheap, tight enough that replay
// after a restore is short.
func incCkStride(n int) int {
	if s := n / 64; s > 64 {
		return s
	}
	return 64
}

// Invalidate drops the cache; the next PackIncInto packs from
// scratch.
func (ws *IncPackWorkspace) Invalidate() { ws.valid = false }

// saveCk copies the current contour into checkpoint slot g, reusing
// the slot's capacity.
func (ws *IncPackWorkspace) saveCk(g int) {
	ws.cks[g] = append(ws.cks[g][:0], ws.contour.segs...)
}

// record stores step s's traversal record.
func (ws *IncPackWorkspace) record(s, m, x, w, h int) {
	ws.pm[s], ws.px[s], ws.pw[s], ws.ph[s] = m, x, w, h
}

// pushChildren pushes module m's children in pre-order (right first so
// left pops first), mirroring PackInto.
func pushChildren(t *Tree, stack []packFrame, m, x, w int) []packFrame {
	if r := t.Right[m]; r != none {
		stack = append(stack, packFrame{r, x})
	}
	if l := t.Left[m]; l != none {
		stack = append(stack, packFrame{l, x + w})
	}
	return stack
}

// PackIncInto is PackInto with prefix reuse against ws's cached
// traversal. Coordinates are bit-identical to PackInto on the same
// tree (see TestIncPackMatchesFull). The returned slices are owned by
// the workspace and overwritten by the next pack.
func (t *Tree) PackIncInto(ws *IncPackWorkspace) (x, y []int) {
	n := t.N()
	ck := incCkStride(n)
	if n == 0 || t.Root == none {
		ws.valid = false
		return t.PackInto(&ws.PackWorkspace)
	}
	if !ws.valid || len(ws.pm) != n || ws.ck != ck {
		return ws.fullPack(t, ck)
	}
	x, y = ws.x, ws.y
	// Compare walk: no contour work while the traversal matches the
	// cached records.
	stack := append(ws.stack[:0], packFrame{t.Root, 0})
	s := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		w, h := t.dims(f.m)
		if f.m != ws.pm[s] || f.x != ws.px[s] || w != ws.pw[s] || h != ws.ph[s] {
			break // first divergent step; frame stays on the stack
		}
		stack = stack[:len(stack)-1]
		stack = pushChildren(t, stack, f.m, f.x, w)
		s++
	}
	if len(stack) == 0 {
		// Traversal fully matched: the previous coordinates stand.
		ws.stack = stack
		return x, y
	}
	// Rebuild the contour as of step s: nearest checkpoint at or
	// before it, then replay the cached records in between.
	g := s / ck
	ws.contour.segs = append(ws.contour.segs[:0], ws.cks[g]...)
	for r := g * ck; r < s; r++ {
		ws.contour.Place(ws.px[r], ws.px[r]+ws.pw[r], ws.ph[r])
	}
	x, y, stack = ws.packFrom(t, stack, s)
	ws.stack = stack[:0]
	return x, y
}

// fullPack packs from scratch, (re)building the record cache and
// checkpoints.
func (ws *IncPackWorkspace) fullPack(t *Tree, ck int) (x, y []int) {
	n := t.N()
	ws.ensure(n)
	ws.ck = ck
	if cap(ws.pm) < n {
		ws.pm = make([]int, n)
		ws.px = make([]int, n)
		ws.pw = make([]int, n)
		ws.ph = make([]int, n)
	}
	ws.pm, ws.px, ws.pw, ws.ph = ws.pm[:n], ws.px[:n], ws.pw[:n], ws.ph[:n]
	if slots := (n + ck - 1) / ck; len(ws.cks) < slots {
		ws.cks = append(ws.cks, make([][]Seg, slots-len(ws.cks))...)
	}
	ws.contour.Reset()
	stack := append(ws.stack[:0], packFrame{t.Root, 0})
	x, y, stack = ws.packFrom(t, stack, 0)
	ws.stack = stack[:0]
	return x, y
}

// packFrom runs the live contour pack from step s with the given
// traversal stack, refreshing records and checkpoints as it goes.
func (ws *IncPackWorkspace) packFrom(t *Tree, stack []packFrame, s int) ([]int, []int, []packFrame) {
	x, y := ws.x, ws.y
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s%ws.ck == 0 {
			ws.saveCk(s / ws.ck)
		}
		w, h := t.dims(f.m)
		ws.record(s, f.m, f.x, w, h)
		x[f.m] = f.x
		y[f.m] = ws.contour.Place(f.x, f.x+w, h)
		stack = pushChildren(t, stack, f.m, f.x, w)
		s++
	}
	ws.valid = true
	return x, y, stack
}
