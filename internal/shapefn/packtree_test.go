package shapefn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bstar"
	"repro/internal/geom"
)

// refPackTree is the pointer-tree packer as it was before shapefn
// packed on bstar's contour: a private contour slice rebuilt per
// module and a fresh placement map per tree. It is the oracle packTree
// is checked against.
func refPackTree(root *tnode) (geom.Placement, int, int) {
	pl := geom.Placement{}
	if root == nil {
		return pl, 0, 0
	}
	const inf = int(^uint(0) >> 1)
	type cseg struct{ x1, x2, h int }
	contour := []cseg{{0, inf, 0}}
	place := func(n *tnode, x int) int {
		top := 0
		for _, s := range contour {
			if s.x2 <= x || s.x1 >= x+n.w {
				continue
			}
			if s.h > top {
				top = s.h
			}
		}
		var out []cseg
		inserted := false
		for _, s := range contour {
			if s.x2 <= x || s.x1 >= x+n.w {
				out = append(out, s)
				continue
			}
			if s.x1 < x {
				out = append(out, cseg{s.x1, x, s.h})
			}
			if !inserted {
				out = append(out, cseg{x, x + n.w, top + n.h})
				inserted = true
			}
			if s.x2 > x+n.w {
				out = append(out, cseg{x + n.w, s.x2, s.h})
			}
		}
		contour = out
		return top
	}
	var walk func(n *tnode, x int)
	walk = func(n *tnode, x int) {
		y := place(n, x)
		pl[n.name] = geom.NewRect(x, y, n.w, n.h)
		if n.left != nil {
			walk(n.left, x+n.w)
		}
		if n.right != nil {
			walk(n.right, x)
		}
	}
	walk(root, 0)
	bb := pl.BBox()
	return pl, bb.W, bb.H
}

// randomTree builds a random pointer B*-tree over n modules by random
// insertion into free child slots.
func randomTree(rng *rand.Rand, n int) *tnode {
	nodes := make([]*tnode, n)
	for i := range nodes {
		nodes[i] = &tnode{name: fmt.Sprint("m", i), w: 1 + rng.Intn(30), h: 1 + rng.Intn(30)}
		if i == 0 {
			continue
		}
		for {
			p := nodes[rng.Intn(i)]
			if rng.Intn(2) == 0 && p.left == nil {
				p.left = nodes[i]
				break
			}
			if p.right == nil {
				p.right = nodes[i]
				break
			}
		}
	}
	return nodes[0]
}

// TestPackTreeMatchesReference: on random trees, packing on one reused
// contour places every module where the reference packer does and
// reports the same bounding width and height.
func TestPackTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var c bstar.Contour
	for trial := 0; trial < 400; trial++ {
		root := randomTree(rng, 1+rng.Intn(60))
		want, ww, wh := refPackTree(root)
		got := geom.Placement{}
		w, h := packTree(root, &c, func(n *tnode, x, y int) { got[n.name] = geom.NewRect(x, y, n.w, n.h) })
		if w != ww || h != wh || len(got) != len(want) {
			t.Fatalf("trial %d: %dx%d with %d modules, reference %dx%d with %d", trial, w, h, len(got), ww, wh, len(want))
		}
		for name, r := range want {
			if got[name] != r {
				t.Fatalf("trial %d: %s at %v, reference %v", trial, name, got[name], r)
			}
		}
	}
}
