// Package hbstar implements hierarchical B*-trees (HB*-trees, Lin/Lin
// [17]), the Section III representation for analog placement with
// layout design hierarchy. Each sub-circuit of the hierarchy owns its
// own tree: symmetry sub-circuits are ASF-B*-tree symmetry islands
// (package asf), other sub-circuits are B*-trees whose nodes are
// devices and hierarchy nodes. A hierarchy node stands for a whole
// child sub-circuit; its top outline is carried as a list of profile
// segments — the paper's "contour nodes" — so that modules packed
// later can nest into the notches of a non-rectangular sub-placement
// instead of being pushed above its bounding box. Every sub-circuit
// packs on a bstar.Contour, and its profile is read back from the
// contour it was packed on, not recomputed from the placement; an
// island's profile is its representative tree's contour, mirrored.
// Modules pack straight into dense coordinate slices over the module
// universe fixed at Build; a geom.Placement is built only for results.
//
// Packing is recursive pre-order, exactly as the paper describes:
// "once a hierarchy node is traversed, the nodes in the HB*-tree
// linked by the hierarchy node will be traversed before traversing the
// next node"; perturbation first selects one of the trees, then
// applies an ordinary B*-tree (or island) perturbation to it.
package hbstar

import (
	"fmt"

	"repro/internal/asf"
	"repro/internal/bstar"
	"repro/internal/constraint"
	"repro/internal/geom"
)

// item is one entry of a sub-circuit's B*-tree: a device or a
// hierarchy node referencing a child sub-circuit.
type item struct {
	id    int // device module id; -1 for hierarchy nodes
	w, h  int // device dimensions (unused for hierarchy nodes)
	child *Node
}

// Node is one sub-circuit with its tree.
type Node struct {
	name string
	kind constraint.Kind

	// Symmetry sub-circuits pack as an island; ids are the module ids
	// of its members, in the island's Names() order.
	island *asf.Island
	ids    []int

	// Other sub-circuits pack a B*-tree over items. The tree's W/H
	// arrays are placeholders; item dimensions are resolved at pack
	// time (children change shape every pack).
	tree  *bstar.Tree
	items []item

	// Packing state, overwritten by every pack and never cloned: the
	// lower-left corner (and, for island members, the dimensions) of
	// each item or member relative to the node's origin, the node's
	// width, and its top profile over [0, width) — the contour nodes
	// its parent packs on. A tree node's profile is read from the
	// contour it packed on; an island's from its representative tree's.
	x, y, w, h []int
	width      int
	profile    []bstar.Seg
	contour    bstar.Contour
	stack      []frame
	ws         bstar.PackWorkspace
}

// frame is one pending pre-order step of a node's packing.
type frame struct{ m, x int }

// Forest is the complete HB*-tree set of one design: the top tree plus
// one tree per sub-circuit ("the number of the HB*-trees will be equal
// to that of the sub-circuits plus the one modelling the top design").
// Packing writes each node's layout buffers, so one forest must not be
// packed concurrently; concurrent searches pack their own clones.
type Forest struct {
	root *Node
	all  []*Node // every Node, for uniform perturbation
	// obj is the module universe, fixed at Build and shared by clones:
	// every device name, sorted; a module id indexes it.
	obj *objective

	// BBoxOutline disables the contour nodes: hierarchy nodes expose
	// a flat bounding-box top instead of their profile. Ablation knob
	// for measuring what the paper's contour nodes buy.
	BBoxOutline bool
}

// Build converts a constraint hierarchy into an HB*-tree forest. dims
// resolves device footprints. Symmetry nodes must consist of device
// pairs and selfs only (hierarchical symmetry over sub-circuits is
// packed by mirroring and currently requires the pair members to be
// leaf devices).
func Build(root *constraint.Node, dims func(name string) (w, h int, err error)) (*Forest, error) {
	names := root.Leaves()
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return nil, fmt.Errorf("hbstar: device %q appears twice in the hierarchy", names[i])
		}
	}
	f := &Forest{obj: newUniverse(names)}
	rn, err := f.build(root, dims)
	if err != nil {
		return nil, err
	}
	f.root = rn
	return f, nil
}

func (f *Forest) build(cn *constraint.Node, dims func(string) (int, int, error)) (*Node, error) {
	n := &Node{name: cn.Name, kind: cn.Kind}
	if cn.Kind == constraint.KindSymmetry {
		if len(cn.Children) > 0 {
			return nil, fmt.Errorf("hbstar: symmetry node %q has sub-circuits; flatten hierarchical symmetry to device pairs first", cn.Name)
		}
		inGroup := map[string]bool{}
		var pairs []asf.Pair
		var selfs []asf.Self
		for _, pr := range cn.SymPairs {
			wl, hl, err := dims(pr[0])
			if err != nil {
				return nil, err
			}
			wr, hr, err := dims(pr[1])
			if err != nil {
				return nil, err
			}
			if wl != wr || hl != hr {
				return nil, fmt.Errorf("hbstar: pair (%s,%s) has unequal dimensions", pr[0], pr[1])
			}
			pairs = append(pairs, asf.Pair{Left: pr[0], Right: pr[1], W: wl, H: hl})
			inGroup[pr[0]], inGroup[pr[1]] = true, true
		}
		for _, s := range cn.SymSelfs {
			w, h, err := dims(s)
			if err != nil {
				return nil, err
			}
			selfs = append(selfs, asf.Self{Name: s, W: w, H: h})
			inGroup[s] = true
		}
		for _, d := range cn.Devices {
			if !inGroup[d] {
				return nil, fmt.Errorf("hbstar: device %q in symmetry node %q is not in any pair", d, cn.Name)
			}
		}
		if len(inGroup) != len(cn.Devices) {
			return nil, fmt.Errorf("hbstar: symmetry node %q pairs a device it does not list", cn.Name)
		}
		isl, err := asf.New(pairs, selfs)
		if err != nil {
			return nil, err
		}
		n.island = isl
		for _, name := range isl.Names() {
			n.ids = append(n.ids, f.obj.id[name])
		}
		f.all = append(f.all, n)
		return n, nil
	}

	for _, d := range cn.Devices {
		w, h, err := dims(d)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item{id: f.obj.id[d], w: w, h: h})
	}
	for _, ch := range cn.Children {
		sub, err := f.build(ch, dims)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item{id: -1, child: sub})
	}
	if len(n.items) == 0 {
		return nil, fmt.Errorf("hbstar: empty sub-circuit %q", cn.Name)
	}
	// Placeholder dims; real extents come from items at pack time.
	ws := make([]int, len(n.items))
	hs := make([]int, len(n.items))
	for i := range ws {
		ws[i], hs[i] = 1, 1
	}
	n.tree = bstar.New(ws, hs)
	f.all = append(f.all, n)
	return n, nil
}

// Pack packs the whole forest and returns the design placement.
func (f *Forest) Pack() (geom.Placement, error) {
	n := len(f.obj.names)
	x, y, w, h := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	if err := f.packInto(x, y, w, h); err != nil {
		return nil, err
	}
	pl := make(geom.Placement, n)
	for i, name := range f.obj.names {
		pl[name] = geom.NewRect(x[i], y[i], w[i], h[i])
	}
	return pl, nil
}

// packInto packs the whole forest into dense coordinate slices indexed
// by module id, with the design's bounding box at the origin. Once
// every node's buffers have grown, it allocates nothing.
func (f *Forest) packInto(x, y, w, h []int) error {
	if err := f.root.layout(f.BBoxOutline); err != nil {
		return err
	}
	f.root.place(0, 0, x, y, w, h)
	return nil
}

// grow sizes the node's per-item buffers for k items or members.
func (n *Node) grow(k int) {
	if cap(n.x) < k {
		n.x, n.y, n.w, n.h = make([]int, k), make([]int, k), make([]int, k), make([]int, k)
	}
	n.x, n.y, n.w, n.h = n.x[:k], n.y[:k], n.w[:k], n.h[:k]
}

// layout packs the node's subtree bottom-up, each node relative to its
// own origin: children first, then the node's tree by the pre-order
// contour sweep, exactly as the paper describes. A hierarchy node
// rests on the contour with its child's profile (or, with bboxOutline,
// a flat top at the child's height).
func (n *Node) layout(bboxOutline bool) error {
	if n.island != nil {
		n.grow(len(n.ids))
		width, err := n.island.PackInto(&n.ws, n.x, n.y, n.w, n.h)
		if err != nil {
			return err
		}
		n.width = width
		n.profile = asf.Profile(&n.ws, width, n.profile[:0])
		return nil
	}
	for _, it := range n.items {
		if it.child != nil {
			if err := it.child.layout(bboxOutline); err != nil {
				return err
			}
		}
	}
	n.grow(len(n.items))
	n.contour.Reset()
	width := 0
	stack := append(n.stack[:0], frame{n.tree.Root, 0})
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		it, w := n.items[fr.m], 0
		switch {
		case it.child == nil:
			h := it.h
			if w = it.w; n.tree.Rot[fr.m] {
				w, h = h, w
			}
			n.y[fr.m] = n.contour.Place(fr.x, fr.x+w, h)
		case bboxOutline:
			w = it.child.width
			n.y[fr.m] = n.contour.Place(fr.x, fr.x+w, top(it.child.profile))
		default:
			w = it.child.width
			n.y[fr.m] = n.contour.PlaceProfile(fr.x, it.child.profile)
		}
		n.x[fr.m] = fr.x
		width = max(width, fr.x+w)
		if r := n.tree.Right[fr.m]; r != -1 {
			stack = append(stack, frame{r, fr.x})
		}
		if l := n.tree.Left[fr.m]; l != -1 {
			stack = append(stack, frame{l, fr.x + w})
		}
	}
	n.stack = stack[:0]
	n.width = width
	n.profile = n.contour.Profile(n.profile[:0], width)
	return nil
}

// top returns the highest segment of a profile.
func top(prof []bstar.Seg) int {
	h := 0
	for _, s := range prof {
		h = max(h, s.H)
	}
	return h
}

// place writes the laid-out subtree's modules into the dense slices,
// with the node's origin at (ox, oy).
func (n *Node) place(ox, oy int, x, y, w, h []int) {
	if n.island != nil {
		for k, id := range n.ids {
			x[id], y[id], w[id], h[id] = ox+n.x[k], oy+n.y[k], n.w[k], n.h[k]
		}
		return
	}
	for i, it := range n.items {
		if it.child != nil {
			it.child.place(ox+n.x[i], oy+n.y[i], x, y, w, h)
			continue
		}
		iw, ih := it.w, it.h
		if n.tree.Rot[i] {
			iw, ih = ih, iw
		}
		x[it.id], y[it.id], w[it.id], h[it.id] = ox+n.x[i], oy+n.y[i], iw, ih
	}
}

// TreeCount returns the number of HB*-trees in the forest (the paper:
// number of sub-circuits plus one for the top design).
func (f *Forest) TreeCount() int { return len(f.all) }

// Clone deep-copies the forest.
func (f *Forest) Clone() *Forest {
	nf := &Forest{obj: f.obj, BBoxOutline: f.BBoxOutline}
	nf.root = nf.cloneNode(f.root)
	return nf
}

func (f *Forest) cloneNode(n *Node) *Node {
	nn := &Node{name: n.name, kind: n.kind, ids: n.ids}
	if n.island != nil {
		nn.island = n.island.Clone()
	} else {
		nn.tree = n.tree.Clone()
		nn.items = make([]item, len(n.items))
		for i, it := range n.items {
			nn.items[i] = it
			if it.child != nil {
				nn.items[i].child = f.cloneNode(it.child)
			}
		}
	}
	f.all = append(f.all, nn)
	return nn
}
