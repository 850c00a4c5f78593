package seqpair

import (
	"fmt"
	"math/rand"
	"testing"
)

// randDims returns random module dimensions in [1, 40].
func randDims(n int, rng *rand.Rand) (w, h []int) {
	w = make([]int, n)
	h = make([]int, n)
	for i := range w {
		w[i] = 1 + rng.Intn(40)
		h[i] = 1 + rng.Intn(40)
	}
	return w, h
}

// checkIncremental packs sp both ways and fails on any coordinate
// mismatch — tolerance zero, the incremental-vs-full contract.
func checkIncremental(t *testing.T, sp *SP, ip *IncPack, ws *PackWorkspace, w, h []int, tag string) {
	t.Helper()
	ix, iy := sp.PackIncrementalInto(ip, w, h)
	fx, fy := sp.PackInto(ws, w, h)
	for m := 0; m < sp.N(); m++ {
		if ix[m] != fx[m] || iy[m] != fy[m] {
			t.Fatalf("%s: module %d incremental (%d,%d) != full (%d,%d)", tag, m, ix[m], iy[m], fx[m], fy[m])
		}
	}
}

// TestIncrementalPackMatchesFullRandomStorm storms one evolving SP
// with every disturbance the placer adapters generate — alpha swaps,
// beta swaps, both-sequence swaps, rotations, save/undo cycles,
// wholesale invalidation — packing incrementally after each batch and
// demanding bit-identity with the from-scratch packer.
func TestIncrementalPackMatchesFullRandomStorm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 25, 120, 400} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			sp := New(n)
			sp.Shuffle(rng)
			w, h := randDims(n, rng)
			ip := &IncPack{}
			ws := &PackWorkspace{}
			var saved State
			savedValid := false
			undoLo, undoHi := 1, 0 // alpha window covering every move since the save
			touch := func(lo, hi int) {
				if hi < lo {
					lo, hi = hi, lo
				}
				ip.Disturb(lo, hi)
				if !savedValid {
					return
				}
				if undoHi < undoLo {
					undoLo, undoHi = lo, hi
					return
				}
				undoLo, undoHi = min(undoLo, lo), max(undoHi, hi)
			}
			checkIncremental(t, sp, ip, ws, w, h, "initial")
			iters := 300
			if n >= 120 {
				iters = 120
			}
			for it := 0; it < iters; it++ {
				// A batch of 1–3 moves accumulates dirty windows before
				// the next pack, like rejected-move runs in the annealer.
				batch := 1 + rng.Intn(3)
				for b := 0; b < batch; b++ {
					switch op := rng.Intn(6); {
					case op == 0 && n >= 2: // alpha swap
						i, j := rng.Intn(n), rng.Intn(n)
						sp.SwapAlpha(i, j)
						touch(i, j)
					case op == 1 && n >= 2: // beta swap
						i, j := rng.Intn(n), rng.Intn(n)
						a, b := sp.Beta[i], sp.Beta[j]
						sp.SwapBeta(i, j)
						touch(sp.PosAlpha(a), sp.PosAlpha(b))
					case op == 2 && n >= 2: // both sequences
						a, b := rng.Intn(n), rng.Intn(n)
						touch(sp.PosAlpha(a), sp.PosAlpha(b))
						sp.SwapModulesAlpha(a, b)
						sp.SwapModulesBeta(a, b)
						touch(sp.PosAlpha(a), sp.PosAlpha(b))
					case op == 3: // rotation: dimension change only
						m := rng.Intn(n)
						w[m], h[m] = h[m], w[m]
						touch(sp.PosAlpha(m), sp.PosAlpha(m))
					case op == 4 && n >= 2: // save → move(s) → pack → undo
						sp.SaveState(&saved)
						savedValid = true
						undoLo, undoHi = 1, 0
						i, j := rng.Intn(n), rng.Intn(n)
						sp.SwapAlpha(i, j)
						touch(i, j)
					case op == 5:
						ip.Invalidate()
					}
				}
				checkIncremental(t, sp, ip, ws, w, h, fmt.Sprintf("iter %d", it))
				if savedValid {
					// Undo after a pack: restore and re-disturb the window
					// covering every move made since the save — a hull,
					// wider than the points the placer adapters disturb.
					sp.LoadState(&saved)
					if undoHi >= undoLo {
						ip.Disturb(undoLo, undoHi)
					}
					savedValid = false
					checkIncremental(t, sp, ip, ws, w, h, fmt.Sprintf("iter %d undo", it))
				}
			}
		})
	}
}

// TestIncrementalPackMatchesNaive cross-checks the whole chain against
// the O(n²) longest-path reference on a mid-size storm.
func TestIncrementalPackMatchesNaive(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(7))
	sp := New(n)
	sp.Shuffle(rng)
	w, h := randDims(n, rng)
	ip := &IncPack{}
	for it := 0; it < 60; it++ {
		i, j := rng.Intn(n), rng.Intn(n)
		sp.SwapAlpha(i, j)
		ip.Disturb(i, j)
		if it%3 == 0 {
			a, b := sp.Beta[rng.Intn(n)], sp.Beta[rng.Intn(n)]
			ip.Disturb(sp.PosAlpha(a), sp.PosAlpha(b))
			sp.SwapModulesBeta(a, b)
		}
		ix, iy := sp.PackIncrementalInto(ip, w, h)
		nx, ny := sp.PackNaive(w, h)
		for m := 0; m < n; m++ {
			if ix[m] != nx[m] || iy[m] != ny[m] {
				t.Fatalf("iter %d module %d: incremental (%d,%d) != naive (%d,%d)", it, m, ix[m], iy[m], nx[m], ny[m])
			}
		}
	}
}

// TestIncrementalPackCleanCacheReturnsSame pins that a pack with no
// pending disturbance returns the cached coordinates without
// rescanning (same backing arrays, same values).
func TestIncrementalPackCleanCacheReturnsSame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 50
	sp := New(n)
	sp.Shuffle(rng)
	w, h := randDims(n, rng)
	ip := &IncPack{}
	x1, y1 := sp.PackIncrementalInto(ip, w, h)
	c0, c1 := x1[0], y1[0]
	x2, y2 := sp.PackIncrementalInto(ip, w, h)
	if &x2[0] != &x1[0] || &y2[0] != &y1[0] {
		t.Fatal("clean-cache pack rebuilt the coordinate buffers")
	}
	if x2[0] != c0 || y2[0] != c1 {
		t.Fatal("clean-cache pack changed coordinates")
	}
}

// TestDisturbKeepsCoveringSpans pins the dirty set's invariants under
// random point and window disturbances: at most incMaxSpans spans,
// sorted, disjoint and non-adjacent, covering every disturbed
// position; while fewer distinct points than the cap arrive, it holds
// exactly those points.
func TestDisturbKeepsCoveringSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		ip := &IncPack{}
		covered := map[int]bool{}
		for k := 0; k < 1+rng.Intn(20); k++ {
			lo := rng.Intn(100)
			hi := lo
			if rng.Intn(4) == 0 {
				hi = rng.Intn(100)
			}
			ip.Disturb(lo, hi)
			for p := min(lo, hi); p <= max(lo, hi); p++ {
				covered[p] = true
			}
			d := ip.dirty[:ip.nd]
			if len(d) == 0 || len(d) > incMaxSpans {
				t.Fatalf("trial %d: %d spans", trial, len(d))
			}
			for i, sp := range d {
				if sp.lo > sp.hi || (i > 0 && d[i-1].hi+1 >= sp.lo) {
					t.Fatalf("trial %d: spans %v not sorted, disjoint and non-adjacent", trial, d)
				}
			}
			for p := range covered {
				in := false
				for _, sp := range d {
					in = in || (sp.lo <= p && p <= sp.hi)
				}
				if !in {
					t.Fatalf("trial %d: disturbed position %d not covered by %v", trial, p, d)
				}
			}
			if len(covered) <= incMaxSpans {
				width := 0
				for _, sp := range d {
					width += sp.hi - sp.lo + 1
				}
				if width != len(covered) {
					t.Fatalf("trial %d: spans %v cover %d positions, %d disturbed", trial, d, width, len(covered))
				}
			}
		}
	}
}

// TestIncrementalPackLocalMoves storms with the range-limited move
// set used at large n, disturbing the two swapped positions as the
// placer does.
func TestIncrementalPackLocalMoves(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(11))
	sp := New(n)
	sp.Shuffle(rng)
	w, h := randDims(n, rng)
	ip := &IncPack{}
	ws := &PackWorkspace{}
	for it := 0; it < 200; it++ {
		lo, hi := sp.PerturbLocal(rng, 16)
		ip.Disturb(lo, lo)
		ip.Disturb(hi, hi)
		checkIncremental(t, sp, ip, ws, w, h, fmt.Sprintf("local iter %d", it))
	}
}

// benchSP builds a shuffled n-module instance for the packing
// benchmarks.
func benchSP(n int, seed int64) (*SP, []int, []int, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	sp := New(n)
	sp.Shuffle(rng)
	w, h := randDims(n, rng)
	return sp, w, h, rng
}

// BenchmarkSeqPairIncrementalPack measures per-move pack cost at
// large n under the placer's range-limited move distribution:
// incremental (re-scan from the two swapped positions) vs full
// (complete FAST-SP scan); BENCH_PR7.json records the baselines.
// incremental-swap/n=1000 is the solve-flat move instead: a global
// PerturbSFTouched swap, undone (and its positions disturbed again) at
// the ~0.89 acceptance ratio of an n=1000 anneal on that schedule.
func BenchmarkSeqPairIncrementalPack(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		window := n / 64
		if window < 16 {
			window = 16
		}
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			sp, w, h, rng := benchSP(n, 42)
			ip := &IncPack{}
			sp.PackIncrementalInto(ip, w, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo, hi := sp.PerturbLocal(rng, window)
				ip.Disturb(lo, lo)
				ip.Disturb(hi, hi)
				sp.PackIncrementalInto(ip, w, h)
			}
		})
		if n == 1000 {
			b.Run(fmt.Sprintf("incremental-swap/n=%d", n), func(b *testing.B) {
				sp, w, h, rng := benchSP(n, 42)
				ip := &IncPack{}
				var saved State
				sp.PackIncrementalInto(ip, w, h)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sp.SaveState(&saved)
					_, a, c := sp.PerturbSFTouched(rng, nil)
					pa, pc := sp.PosAlpha(a), sp.PosAlpha(c)
					ip.Disturb(pa, pa)
					ip.Disturb(pc, pc)
					sp.PackIncrementalInto(ip, w, h)
					if rng.Float64() >= 0.89 {
						sp.LoadState(&saved)
						ip.Disturb(pa, pa)
						ip.Disturb(pc, pc)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) {
			sp, w, h, rng := benchSP(n, 42)
			ws := &PackWorkspace{}
			sp.PackInto(ws, w, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.PerturbLocal(rng, window)
				sp.PackInto(ws, w, h)
			}
		})
	}
}

// TestIncrementalPackGridBoundaries disturbs the scan exactly on the
// checkpoint grid, where the incremental packer seeks from and checks
// for re-convergence: alpha position p is step p of the forward x scan
// and step n-1-p of the reverse y scan, so each grid step is hit on
// both axes. Every single swap, its undo and every rotation must pack
// to PackInto's coordinates, and to PackNaive's where n ≤ 64.
func TestIncrementalPackGridBoundaries(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 257, 1000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + n)))
			sp := New(n)
			sp.Shuffle(rng)
			w, h := randDims(n, rng)
			ip := &IncPack{}
			ws := &PackWorkspace{}
			check := func(tag string) {
				t.Helper()
				checkIncremental(t, sp, ip, ws, w, h, tag)
				if n > 64 {
					return
				}
				ix, iy := sp.PackIncrementalInto(ip, w, h)
				nx, ny := sp.PackNaive(w, h)
				for m := 0; m < n; m++ {
					if ix[m] != nx[m] || iy[m] != ny[m] {
						t.Fatalf("%s: module %d incremental (%d,%d) != naive (%d,%d)", tag, m, ix[m], iy[m], nx[m], ny[m])
					}
				}
			}
			check("initial")

			// Grid steps of the x scan and, mirrored, of the y scan;
			// the first step past the last grid point; both ends.
			ck := incCkStride(n)
			seen := map[int]bool{}
			var pos []int
			add := func(p int) {
				if p >= 0 && p < n && !seen[p] {
					seen[p] = true
					pos = append(pos, p)
				}
			}
			for s := 0; s < n; s += ck {
				add(s)
				add(n - 1 - s)
			}
			last := (n - 1) / ck * ck
			add(last + 1)
			add(n - 1 - (last + 1))
			add(n - 1)

			for i, p := range pos {
				m := sp.Alpha[p]
				w[m], h[m] = h[m], w[m]
				ip.Disturb(p, p)
				check(fmt.Sprintf("rotate alpha %d", p))
				if n < 2 {
					continue
				}
				q := pos[(i+1)%len(pos)]
				if q == p {
					q = (p + 1) % n
				}
				for _, tag := range []string{"swap", "undo"} {
					sp.SwapAlpha(p, q)
					ip.Disturb(p, p)
					ip.Disturb(q, q)
					check(fmt.Sprintf("%s alpha %d,%d", tag, p, q))
				}
			}

			// Windows that end one step before grid step s: on the x
			// scan (alpha [s-2, s-1]) and on the y scan (steps
			// [s-2, s-1], alpha [n-s, n-s+1]).
			for s := ck; s < n && n >= 3; s += ck {
				for _, lo := range []int{s - 2, n - s} {
					if lo < 0 || lo+1 >= n {
						continue
					}
					sp.SwapAlpha(lo, lo+1)
					ip.Disturb(lo, lo+1)
					check(fmt.Sprintf("window [%d,%d]", lo, lo+1))
				}
			}
		})
	}
}
