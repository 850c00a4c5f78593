package bstar

import (
	"math/rand"
	"testing"
)

// contourSeg is the reference packer's own contour segment: height h
// over [x1, x2).
type contourSeg struct{ x1, x2, h int }

// packReference is an independent implementation of B*-tree contour
// packing (the pre-workspace algorithm, kept verbatim): the oracle the
// allocation-free packer is differential-tested against.
func packReference(t *Tree) (x, y []int) {
	n := t.N()
	x = make([]int, n)
	y = make([]int, n)
	if n == 0 || t.Root == none {
		return x, y
	}
	contour := []contourSeg{{0, int(^uint(0) >> 1), 0}}
	place := func(m, xpos int) {
		w, h := t.dims(m)
		x[m] = xpos
		xEnd := xpos + w
		top := 0
		for _, s := range contour {
			if s.x2 <= xpos || s.x1 >= xEnd {
				continue
			}
			if s.h > top {
				top = s.h
			}
		}
		y[m] = top
		var out []contourSeg
		newSeg := contourSeg{xpos, xEnd, top + h}
		inserted := false
		for _, s := range contour {
			if s.x2 <= xpos || s.x1 >= xEnd {
				out = append(out, s)
				continue
			}
			if s.x1 < xpos {
				out = append(out, contourSeg{s.x1, xpos, s.h})
			}
			if !inserted {
				out = append(out, newSeg)
				inserted = true
			}
			if s.x2 > xEnd {
				out = append(out, contourSeg{xEnd, s.x2, s.h})
			}
		}
		if !inserted {
			out = append(out, newSeg)
		}
		contour = contour[:0]
		for _, s := range out {
			if len(contour) > 0 && contour[len(contour)-1].h == s.h && contour[len(contour)-1].x2 == s.x1 {
				contour[len(contour)-1].x2 = s.x2
			} else {
				contour = append(contour, s)
			}
		}
	}
	type frame struct{ m, xpos int }
	stack := []frame{{t.Root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		place(f.m, f.xpos)
		w, _ := t.dims(f.m)
		if r := t.Right[f.m]; r != none {
			stack = append(stack, frame{r, x[f.m]})
		}
		if l := t.Left[f.m]; l != none {
			stack = append(stack, frame{l, x[f.m] + w})
		}
	}
	return x, y
}

func checkAgainstReference(t *testing.T, tr *Tree, ws *PackWorkspace, ctx string) {
	t.Helper()
	rx, ry := packReference(tr)
	x, y := tr.PackInto(ws)
	for i := range rx {
		if x[i] != rx[i] || y[i] != ry[i] {
			t.Fatalf("%s: module %d at (%d,%d), reference (%d,%d)",
				ctx, i, x[i], y[i], rx[i], ry[i])
		}
	}
	// The compatibility wrapper must agree as well.
	px, py := tr.Pack()
	for i := range rx {
		if px[i] != rx[i] || py[i] != ry[i] {
			t.Fatalf("%s: Pack() module %d at (%d,%d), reference (%d,%d)",
				ctx, i, px[i], py[i], rx[i], ry[i])
		}
	}
}

// TestPackIntoMatchesReference is the property test of the tentpole:
// PackInto with a single reused workspace produces coordinates
// identical to the reference contour packer over random trees and
// random perturbation sequences (the workspace sees the same dirty
// reuse pattern as an annealing run).
func TestPackIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws PackWorkspace // shared across every check on purpose
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(14)
		w := make([]int, n)
		h := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(20)
			h[i] = 1 + rng.Intn(20)
		}
		tr := NewRandom(w, h, rng)
		checkAgainstReference(t, tr, &ws, "fresh random tree")
		for step := 0; step < 25; step++ {
			tr.Perturb(rng)
			if err := tr.Validate(); err != nil {
				t.Fatalf("perturb broke tree: %v", err)
			}
			checkAgainstReference(t, tr, &ws, "after perturbation")
		}
	}
}

// TestPackIntoWorkspaceReuseAcrossSizes checks that one workspace can
// serve trees of different module counts back to back (the hbstar
// forest pattern).
func TestPackIntoWorkspaceReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws PackWorkspace
	for _, n := range []int{12, 1, 8, 3, 15, 2} {
		w := make([]int, n)
		h := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(9)
			h[i] = 1 + rng.Intn(9)
		}
		tr := NewRandom(w, h, rng)
		checkAgainstReference(t, tr, &ws, "size change")
	}
}

// TestSaveLoadState checks the exact-undo contract: any perturbation
// followed by LoadState restores identical packing coordinates.
func TestSaveLoadState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws PackWorkspace
	var st TreeState
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		w := make([]int, n)
		h := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(12)
			h[i] = 1 + rng.Intn(12)
		}
		tr := NewRandom(w, h, rng)
		for step := 0; step < 20; step++ {
			bx, by := tr.PackInto(&ws)
			bxc := append([]int(nil), bx...)
			byc := append([]int(nil), by...)
			tr.SaveState(&st)
			tr.Perturb(rng)
			tr.LoadState(&st)
			if err := tr.Validate(); err != nil {
				t.Fatalf("LoadState left invalid tree: %v", err)
			}
			ax, ay := tr.PackInto(&ws)
			for i := 0; i < n; i++ {
				if ax[i] != bxc[i] || ay[i] != byc[i] {
					t.Fatalf("undo changed packing: module %d (%d,%d) -> (%d,%d)",
						i, bxc[i], byc[i], ax[i], ay[i])
				}
			}
			tr.Perturb(rng) // drift to a new state for the next step
		}
	}
}
