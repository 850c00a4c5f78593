package seqpair

// Incremental packing. The FAST-SP scan (packLCSInto) is a fold over
// the alpha sequence whose only carried state is the "staircase" — the
// Pareto frontier of (beta position, edge value) pairs with values
// strictly increasing in key. Scan step s reads three inputs: the
// module at alpha position s, its beta position and its dimension. A
// sequence move changes those inputs at a few points only — swapping
// two modules in alpha, in beta or in both disturbs exactly the two
// steps at their alpha positions, and a rotation the one step of the
// rotated module — while every step in between reads what it read
// before. So a repack replays the cached trajectory wherever it still
// holds, and re-scans for real only from each disturbed point until
// the staircase provably re-converges with the previous pack's:
//
//   - every pack journals, per scan step, the inserted (key, value)
//     and the dominated keys it deleted;
//   - staircase snapshots are checkpointed on a fixed step grid and
//     refreshed in passing, so by induction each checkpoint always
//     equals the state of the most recent pack just before its step;
//   - the dirty set is a short sorted list of disjoint step intervals;
//     for each interval, an incremental pack brings the working
//     staircase to the interval's first step (from the nearest
//     checkpoint, or from where the previous interval's scan stopped
//     if that is closer) by journal replay — cheap: no predecessor
//     queries, just recorded splices;
//   - it then re-scans for real. At each grid step past the interval,
//     before refreshing that checkpoint, it compares the working
//     staircase with it (same keys, same values). Equal means the new
//     scan has re-converged with the old one, so every step up to the
//     next interval would reproduce the cached journal entry,
//     coordinate and checkpoint exactly: the scan jumps ahead (or,
//     past the last interval, stops).
//
// The skip is exact, not approximate: the scan step is a deterministic
// function of (staircase, module, key, dimension), and the checkpoint
// not yet refreshed by this pack is the old trajectory's staircase
// just before its step, so equal staircases and undisturbed inputs
// imply identical steps. Checking only on the grid costs overshoot,
// never exactness: a scan may run up to one stride past the step where
// it truly re-converged. The property tests in incpack_test.go and
// FuzzIncPack in fuzz_test.go hold PackIncrementalInto bit-identical
// to PackInto (and PackNaive) under randomized move/undo/disturb
// sequences.
//
// The staircase here is a sorted key slice with a value array indexed
// by key (beta position), not the vEB queue of the full packer: the
// incremental scan touches few steps, so the O(log s) binary search
// and small memmoves beat re-Clearing a vEB universe every pack.

// incCkStride returns the checkpoint grid stride for n modules. The
// grid holds the seek points and is where a re-scan checks for
// re-convergence, so a scan overshoots the true convergence step by
// up to a stride; n/256 keeps that overshoot and the journal replay
// behind a seek short, while checkpoint refreshes and memory stay
// bounded at n = 10⁵.
func incCkStride(n int) int {
	const minStride = 16
	if s := n / 256; s > minStride {
		return s
	}
	return minStride
}

// incMaxSpans caps the dirty set. An annealing move disturbs at most
// two points, and a rejected move's undo re-disturbs the same two
// before the next move adds its own, so four spans cover the placer's
// traffic; the cap only bounds what accumulates between packs that
// never come (symmetric instances pack with PackSymmetric instead).
const incMaxSpans = 8

// span is an inclusive interval of alpha positions (or scan steps).
type span struct{ lo, hi int }

// incAxis is the per-axis incremental scan state (x: forward alpha
// scan over widths; y: reverse alpha scan over heights).
type incAxis struct {
	reverse bool
	ck      int
	// coord is the cached coordinate per module id — the output.
	coord []int
	// Journal of the most recent trajectory, per scan step.
	insKey, insVal []int
	delKeys        [][]int
	// Working staircase: sorted keys, plus the value of each live key
	// indexed by key (beta position).
	keys []int
	val  []int
	// Checkpoints: staircase state just before step g*ck.
	ckKeys, ckVals [][]int
}

func (a *incAxis) ensure(n int) {
	a.ck = incCkStride(n)
	if cap(a.coord) < n {
		a.coord = make([]int, n)
		a.insKey = make([]int, n)
		a.insVal = make([]int, n)
		a.delKeys = make([][]int, n)
		a.val = make([]int, n)
	}
	a.coord = a.coord[:n]
	a.insKey, a.insVal = a.insKey[:n], a.insVal[:n]
	a.delKeys = a.delKeys[:n]
	a.val = a.val[:n]
	nck := (n-1)/a.ck + 1
	if n == 0 {
		nck = 0
	}
	for len(a.ckKeys) < nck {
		a.ckKeys = append(a.ckKeys, nil)
		a.ckVals = append(a.ckVals, nil)
	}
	a.ckKeys = a.ckKeys[:nck]
	a.ckVals = a.ckVals[:nck]
}

// search returns the index of the first key ≥ p — sort.SearchInts,
// inlined: the scan calls it once per step.
func (a *incAxis) search(p int) int {
	lo, hi := 0, len(a.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.keys[m] < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// splice replaces keys[i:i+nd] with the single key p.
func (a *incAxis) splice(i, nd, p int) {
	switch {
	case nd == 0:
		a.keys = append(a.keys, 0)
		copy(a.keys[i+1:], a.keys[i:])
		a.keys[i] = p
	default:
		a.keys[i] = p
		if nd > 1 {
			copy(a.keys[i+1:], a.keys[i+nd:])
			a.keys = a.keys[:len(a.keys)-nd+1]
		}
	}
}

func (a *incAxis) saveCk(g int) {
	a.ckKeys[g] = append(a.ckKeys[g][:0], a.keys...)
	vals := a.ckVals[g][:0]
	for _, k := range a.keys {
		vals = append(vals, a.val[k])
	}
	a.ckVals[g] = vals
}

func (a *incAxis) loadCk(g int) {
	a.keys = append(a.keys[:0], a.ckKeys[g]...)
	for i, k := range a.keys {
		a.val[k] = a.ckVals[g][i]
	}
}

// atCk reports whether the working staircase equals checkpoint g:
// same keys, same values.
func (a *incAxis) atCk(g int) bool {
	keys, vals := a.ckKeys[g], a.ckVals[g]
	if len(keys) != len(a.keys) {
		return false
	}
	for i, k := range a.keys {
		if keys[i] != k || vals[i] != a.val[k] {
			return false
		}
	}
	return true
}

// step runs one scan step on the working staircase, overwriting the
// journal entry for s.
func (a *incAxis) step(sp *SP, dim []int, s int) {
	var m int
	if a.reverse {
		m = sp.Alpha[len(sp.Alpha)-1-s]
	} else {
		m = sp.Alpha[s]
	}
	p := sp.posB[m]
	i := a.search(p)
	c := 0
	if i > 0 {
		c = a.val[a.keys[i-1]]
	}
	a.coord[m] = c
	end := c + dim[m]
	// Dominated successors: larger keys whose value does not exceed
	// the new entry's, exactly as the vEB packer deletes them.
	j := i
	for j < len(a.keys) && a.val[a.keys[j]] <= end {
		j++
	}
	a.delKeys[s] = append(a.delKeys[s][:0], a.keys[i:j]...)
	a.splice(i, j-i, p)
	a.insKey[s], a.insVal[s] = p, end
	a.val[p] = end
}

// replay applies the journaled step s to the working staircase
// without recomputation: recorded deletions, recorded insertion.
func (a *incAxis) replay(s int) {
	p := a.insKey[s]
	a.splice(a.search(p), len(a.delKeys[s]), p)
	a.val[p] = a.insVal[s]
}

// full runs a complete scan, establishing coord, journal and
// checkpoints from scratch.
func (a *incAxis) full(sp *SP, dim []int) {
	n := sp.N()
	a.keys = a.keys[:0]
	for s := 0; s < n; s++ {
		if s%a.ck == 0 {
			a.saveCk(s / a.ck)
		}
		a.step(sp, dim, s)
	}
}

// seek brings the working staircase to its state just before step
// lo by journal replay, starting from the nearest checkpoint at or
// below lo — or from pos, where the staircase already holds the state
// just before step pos, when that is closer (pos < 0: nothing held).
func (a *incAxis) seek(pos, lo int) {
	from := lo / a.ck * a.ck
	if pos >= from {
		from = pos
	} else {
		a.loadCk(from / a.ck)
	}
	for s := from; s < lo; s++ {
		a.replay(s)
	}
}

// incremental re-scans the disturbed scan-step intervals dirty (sorted,
// disjoint): for each, seek to its first step, then run live steps
// until a grid step past the interval finds the working staircase
// equal to that step's checkpoint. An interval the live scan reaches
// before converging joins the scan in progress.
func (a *incAxis) incremental(sp *SP, dim []int, dirty []span) {
	n := sp.N()
	pos := -1
	for k := 0; k < len(dirty); {
		lo, hi := dirty[k].lo, dirty[k].hi
		k++
		a.seek(pos, lo)
		s := lo
		for ; s < n; s++ {
			for k < len(dirty) && dirty[k].lo <= s {
				hi = max(hi, dirty[k].hi)
				k++
			}
			if s%a.ck == 0 {
				// Compare before saveCk overwrites the old state.
				if s > hi && a.atCk(s/a.ck) {
					break // exact convergence: steps up to the next interval replay the cache
				}
				a.saveCk(s / a.ck)
			}
			a.step(sp, dim, s)
		}
		if s == n {
			return
		}
		pos = s
	}
}

// IncPack is the reusable incremental packing state of one SP walk:
// cached coordinates, per-axis scan journals and staircase
// checkpoints, and the set of alpha positions disturbed since the last
// pack. The zero value is ready to use (the first pack is a full
// scan). Like PackWorkspace it must not be shared between concurrent
// packings, and it caches the trajectory of one evolving SP: callers
// must Disturb it with every alpha position whose scan inputs changed
// since the last pack — the alpha positions of the modules a swap or
// rotation touched, re-disturbed on undo — and Invalidate it on
// wholesale state replacement (Restore, crossover).
type IncPack struct {
	n     int
	valid bool
	// dirty holds nd sorted, disjoint, non-adjacent alpha intervals;
	// the extra slot takes an insertion before the cap merges.
	dirty [incMaxSpans + 1]span
	nd    int
	x, y  incAxis
}

// Invalidate drops the cache; the next pack is a full scan.
func (ip *IncPack) Invalidate() { ip.valid = false }

// Disturb marks alpha positions [lo, hi] (inclusive, in any order) as
// disturbed; a single position p is Disturb(p, p). Disturbances
// accumulate until the next PackIncrementalInto consumes them. They
// are kept as a short sorted list of disjoint intervals: overlapping
// or adjacent ones merge, and beyond incMaxSpans the two closest
// merge, which widens the re-scan but never loses a position.
func (ip *IncPack) Disturb(lo, hi int) {
	if hi < lo {
		lo, hi = hi, lo
	}
	d := ip.dirty[:ip.nd]
	i := 0
	for i < len(d) && d[i].hi+1 < lo {
		i++
	}
	j := i
	for j < len(d) && d[j].lo <= hi+1 {
		lo, hi = min(lo, d[j].lo), max(hi, d[j].hi)
		j++
	}
	if i == j {
		copy(ip.dirty[i+1:ip.nd+1], ip.dirty[i:ip.nd])
		ip.nd++
	} else {
		copy(ip.dirty[i+1:], ip.dirty[j:ip.nd])
		ip.nd -= j - i - 1
	}
	ip.dirty[i] = span{lo, hi}
	if ip.nd > incMaxSpans {
		k := 0
		for m := 1; m+1 < ip.nd; m++ {
			if ip.dirty[m+1].lo-ip.dirty[m].hi < ip.dirty[k+1].lo-ip.dirty[k].hi {
				k = m
			}
		}
		ip.dirty[k].hi = ip.dirty[k+1].hi
		copy(ip.dirty[k+1:], ip.dirty[k+2:ip.nd])
		ip.nd--
	}
}

// PackIncrementalInto packs like PackInto but reuses the cached
// trajectory outside the disturbed positions. The returned slices are
// owned by ip and overwritten by the next pack; results are
// bit-identical to PackInto for every correctly disturbed move
// sequence (see the property tests and FuzzIncPack).
func (sp *SP) PackIncrementalInto(ip *IncPack, w, h []int) (x, y []int) {
	n := sp.N()
	if !ip.valid || ip.n != n {
		ip.n = n
		ip.x.reverse, ip.y.reverse = false, true
		ip.x.ensure(n)
		ip.y.ensure(n)
		ip.x.full(sp, w)
		ip.y.full(sp, h)
		ip.valid = true
		ip.nd = 0
		return ip.x.coord, ip.y.coord
	}
	// Clamp to [0, n-1]. Alpha interval [lo, hi] is scan steps [lo, hi]
	// on the forward x scan and [n-1-hi, n-1-lo] on the reverse y scan,
	// where the list's order reverses too.
	var xs, ys [incMaxSpans]span
	m := 0
	for _, d := range ip.dirty[:ip.nd] {
		if lo, hi := max(d.lo, 0), min(d.hi, n-1); lo <= hi {
			xs[m] = span{lo, hi}
			m++
		}
	}
	ip.nd = 0
	for k := range m {
		d := xs[m-1-k]
		ys[k] = span{n - 1 - d.hi, n - 1 - d.lo}
	}
	ip.x.incremental(sp, w, xs[:m])
	ip.y.incremental(sp, h, ys[:m])
	return ip.x.coord, ip.y.coord
}
