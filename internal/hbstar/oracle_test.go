package hbstar

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bstar"
	"repro/internal/circuits"
	"repro/internal/geom"
)

// This file keeps the HB*-tree packer as it was before the forest
// packed on bstar's contour: a private []seg contour rebuilt on every
// insertion, a geom.Placement map per sub-circuit, and each profile
// recomputed by skyline over that map. It is the oracle the dense
// packer is checked against, rectangle for rectangle and profile for
// profile.

// seg is one skyline segment: height h over [x1, x2) relative to the
// sub-placement origin.
type seg struct {
	x1, x2, h int
}

// packed is a packed sub-circuit: its placement (origin at (0,0)) and
// top skyline.
type packed struct {
	pl      geom.Placement
	width   int
	profile []seg
}

// refPack packs n's subtree the old way and records every node's
// skyline in profiles.
func (f *Forest) refPack(n *Node, bboxOutline bool, profiles map[*Node][]seg) (packed, error) {
	if n.island != nil {
		k := len(n.ids)
		x, y, w, h := make([]int, k), make([]int, k), make([]int, k), make([]int, k)
		var ws bstar.PackWorkspace
		if _, err := n.island.PackInto(&ws, x, y, w, h); err != nil {
			return packed{}, err
		}
		pl := geom.Placement{}
		for i, id := range n.ids {
			pl[f.obj.names[id]] = geom.NewRect(x[i], y[i], w[i], h[i])
		}
		pl.Normalize()
		p := finishPacked(pl)
		profiles[n] = p.profile
		return p, nil
	}

	// Pack children first.
	sub := make([]packed, len(n.items))
	for i, it := range n.items {
		if it.child != nil {
			p, err := f.refPack(it.child, bboxOutline, profiles)
			if err != nil {
				return packed{}, err
			}
			sub[i] = p
		}
	}
	width := func(i int) int {
		it := n.items[i]
		if it.child != nil {
			return sub[i].width
		}
		if n.tree.Rot[i] {
			return it.h
		}
		return it.w
	}
	profile := func(i, atY int) []seg {
		it := n.items[i]
		if it.child != nil {
			if bboxOutline {
				top := 0
				for _, s := range sub[i].profile {
					if s.h > top {
						top = s.h
					}
				}
				return []seg{{0, sub[i].width, atY + top}}
			}
			out := make([]seg, len(sub[i].profile))
			for k, s := range sub[i].profile {
				out[k] = seg{s.x1, s.x2, s.h + atY}
			}
			return out
		}
		h := it.h
		if n.tree.Rot[i] {
			h = it.w
		}
		return []seg{{0, width(i), atY + h}}
	}

	// Pre-order contour packing over the node's tree.
	const inf = int(^uint(0) >> 1)
	contour := []seg{{0, inf, 0}}
	maxOver := func(x1, x2 int) int {
		top := 0
		for _, s := range contour {
			if s.x2 <= x1 || s.x1 >= x2 {
				continue
			}
			if s.h > top {
				top = s.h
			}
		}
		return top
	}
	update := func(x int, prof []seg) {
		var out []seg
		// prof segments are absolute heights over [x+s.x1, x+s.x2).
		lo, hi := x+prof[0].x1, x+prof[len(prof)-1].x2
		inserted := false
		for _, s := range contour {
			if s.x2 <= lo || s.x1 >= hi {
				out = append(out, s)
				continue
			}
			if s.x1 < lo {
				out = append(out, seg{s.x1, lo, s.h})
			}
			if !inserted {
				for _, p := range prof {
					out = append(out, seg{x + p.x1, x + p.x2, p.h})
				}
				inserted = true
			}
			if s.x2 > hi {
				out = append(out, seg{hi, s.x2, s.h})
			}
		}
		if !inserted {
			for _, p := range prof {
				out = append(out, seg{x + p.x1, x + p.x2, p.h})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].x1 < out[j].x1 })
		}
		contour = mergeSegs(out)
	}

	xs := make([]int, len(n.items))
	ys := make([]int, len(n.items))
	type frame struct{ m, x int }
	stack := []frame{{n.tree.Root, 0}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w := width(fr.m)
		y := maxOver(fr.x, fr.x+w)
		xs[fr.m], ys[fr.m] = fr.x, y
		update(fr.x, profile(fr.m, y))
		if r := n.tree.Right[fr.m]; r != -1 {
			stack = append(stack, frame{r, fr.x})
		}
		if l := n.tree.Left[fr.m]; l != -1 {
			stack = append(stack, frame{l, fr.x + w})
		}
	}

	// Assemble the placement.
	pl := geom.Placement{}
	for i, it := range n.items {
		if it.child != nil {
			for name, r := range sub[i].pl {
				pl[name] = r.Translate(xs[i], ys[i])
			}
			continue
		}
		w, h := it.w, it.h
		if n.tree.Rot[i] {
			w, h = h, w
		}
		pl[f.obj.names[it.id]] = geom.NewRect(xs[i], ys[i], w, h)
	}
	pl.Normalize()
	p := finishPacked(pl)
	profiles[n] = p.profile
	return p, nil
}

// finishPacked computes width and skyline of a normalized placement.
func finishPacked(pl geom.Placement) packed {
	bb := pl.BBox()
	return packed{pl: pl, width: bb.W, profile: skyline(pl)}
}

// skyline computes the top profile of a placement as merged segments
// covering [bbox.X, bbox.X2) — zero-height gaps included so the parent
// contour stays well-formed.
func skyline(pl geom.Placement) []seg {
	bb := pl.BBox()
	// Collect x breakpoints.
	xsSet := map[int]bool{bb.X: true, bb.X2(): true}
	for _, r := range pl {
		xsSet[r.X] = true
		xsSet[r.X2()] = true
	}
	xs := make([]int, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	var out []seg
	for i := 0; i+1 < len(xs); i++ {
		x1, x2 := xs[i], xs[i+1]
		h := 0
		for _, r := range pl {
			if r.X < x2 && x1 < r.X2() && r.Y2() > h {
				h = r.Y2()
			}
		}
		out = append(out, seg{x1 - bb.X, x2 - bb.X, h - bb.Y})
	}
	return mergeSegs(out)
}

// mergeSegs coalesces adjacent segments of equal height.
func mergeSegs(in []seg) []seg {
	var out []seg
	for _, s := range in {
		if s.x1 >= s.x2 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].h == s.h && out[len(out)-1].x2 == s.x1 {
			out[len(out)-1].x2 = s.x2
		} else {
			out = append(out, s)
		}
	}
	return out
}

// checkAgainstOracle packs f both ways and fails unless every module
// sits on the same rectangle and, with contour nodes, every node's
// profile is the oracle's skyline segment for segment.
func checkAgainstOracle(t *testing.T, f *Forest, tag string) {
	t.Helper()
	got, err := f.Pack()
	profiles := map[*Node][]seg{}
	want, refErr := f.refPack(f.root, f.BBoxOutline, profiles)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%s: pack error %v, oracle error %v", tag, err, refErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want.pl) {
		t.Fatalf("%s: %d modules packed, oracle %d", tag, len(got), len(want.pl))
	}
	for name, r := range want.pl {
		if got[name] != r {
			t.Fatalf("%s: %s packed at %v, oracle %v", tag, name, got[name], r)
		}
	}
	if f.BBoxOutline {
		return // the contour flattens children; only placements compare
	}
	for _, n := range f.all {
		var prof []seg
		for _, s := range n.profile {
			prof = append(prof, seg{s.X1, s.X2, s.H})
		}
		if !slices.Equal(prof, profiles[n]) {
			t.Fatalf("%s: node %q profile %v, oracle skyline %v", tag, n.name, prof, profiles[n])
		}
	}
}

// FuzzForestPack decodes bytes into one of the benchmark circuits
// (placer.BenchmarkNames() lists the same circuits), an outline mode
// and a sequence of perturb / undo / clone / snapshot / restore steps,
// and checks the dense contour packing against the oracle after every
// step.
func FuzzForestPack(f *testing.F) {
	names := circuits.Names()
	sort.Strings(names)
	for i := range names {
		f.Add([]byte{byte(i), 7, 0, 1, 2, 0, 4, 0, 0, 5, 3, 0, 2, 1})
		f.Add([]byte{byte(len(names) + i), 3, 0, 0, 0, 2, 4, 1, 1, 5, 5, 3})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 256 {
			return
		}
		bench, err := circuits.ByName(names[int(data[0])%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		forest, err := Build(bench.Tree, func(name string) (int, int, error) {
			d := bench.Circuit.Device(name)
			return d.FW, d.FH, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		forest.BBoxOutline = int(data[0])/len(names)%2 == 1
		rng := rand.New(rand.NewSource(int64(data[1])))
		var u ForestUndo
		var snap *Forest
		checkAgainstOracle(t, forest, "initial")
		for i, b := range data[2:] {
			switch b % 6 {
			case 0, 1:
				forest.PerturbUndoable(rng, &u)
			case 2:
				u.Undo()
			case 3:
				forest, u = forest.Clone(), ForestUndo{}
			case 4:
				snap = forest.Clone()
			case 5:
				if snap != nil {
					forest, u = snap.Clone(), ForestUndo{}
				}
			}
			checkAgainstOracle(t, forest, fmt.Sprintf("%s step %d (op %d)", bench.Name, i, b%6))
		}
	})
}
