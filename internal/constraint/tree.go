package constraint

import (
	"fmt"
	"iter"
	"sort"

	"repro/internal/geom"
)

// Hierarchy node kinds: the constraint attached to one node of a
// layout design hierarchy (Fig. 2 of the paper), spelled as on the
// wire.
const (
	KindNone           = ""                // plain grouping, no constraint
	KindSymmetry       = "symmetry"        // (hierarchical) symmetry
	KindCommonCentroid = "common_centroid" // common-centroid
	KindProximity      = "proximity"       // (hierarchical) proximity
)

// Node is one sub-circuit of a layout design hierarchy. Leaves carry
// device names; inner nodes carry child sub-circuits. A node's
// constraint may reference both its direct devices and its children
// (hierarchical symmetry: "a sub-circuit with the hierarchical symmetry
// constraint may contain some devices together with other sub-circuits").
// The JSON tags are the wire spelling of the hierarchy, and the field
// order is the order of the canonical encoding.
type Node struct {
	Name    string   `json:"name,omitempty"`
	Kind    string   `json:"kind,omitempty"`    // one of the Kind constants
	Devices []string `json:"devices,omitempty"` // devices directly owned by this sub-circuit

	// Symmetry payload (Kind == KindSymmetry). Pair and self entries
	// name either direct devices or children of this node; naming a
	// child means the whole sub-circuit participates as one object.
	Pairs [][2]string `json:"pairs,omitempty"`
	Selfs []string    `json:"selfs,omitempty"`

	// Common-centroid payload (Kind == KindCommonCentroid).
	Units map[string][]string `json:"units,omitempty"`

	Children []*Node `json:"children,omitempty"` // nested sub-circuits
}

// Child returns the named child node, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ProximityGroups collects, for every proximity node in the subtree,
// its member device names: the node's own devices plus all devices of
// its sub-circuits. Both the flat and the hierarchical placers derive
// their proximity cost groups from this one walker, so they cannot
// drift on what a proximity group means.
func (n *Node) ProximityGroups() [][]string {
	var groups [][]string
	var walk func(nd *Node)
	walk = func(nd *Node) {
		if nd.Kind == KindProximity {
			members := append([]string{}, nd.Devices...)
			for _, c := range nd.Children {
				members = append(members, c.Leaves()...)
			}
			groups = append(groups, members)
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(n)
	return groups
}

// SymmetryGroups yields, for every symmetry node in the subtree in
// pre-order, its device-level members resolved to module ids through
// id: the pairs whose two names id both lists, and the selfs it
// lists. A pair or self naming anything else — a child node, say —
// has no flat meaning and is skipped, and a node left without
// members yields nothing. The flat engines' symmetry groups and the
// hierarchical engine's thermal pairs all come from this one walker,
// so they cannot drift on what a symmetry node binds.
func (n *Node) SymmetryGroups(id map[string]int) iter.Seq2[[][2]int, []int] {
	return func(yield func(pairs [][2]int, selfs []int) bool) {
		var walk func(nd *Node) bool
		walk = func(nd *Node) bool {
			if nd.Kind == KindSymmetry {
				var pairs [][2]int
				var selfs []int
				for _, pr := range nd.Pairs {
					a, oka := id[pr[0]]
					b, okb := id[pr[1]]
					if oka && okb {
						pairs = append(pairs, [2]int{a, b})
					}
				}
				for _, s := range nd.Selfs {
					if m, ok := id[s]; ok {
						selfs = append(selfs, m)
					}
				}
				if len(pairs)+len(selfs) > 0 && !yield(pairs, selfs) {
					return false
				}
			}
			for _, c := range nd.Children {
				if !walk(c) {
					return false
				}
			}
			return true
		}
		walk(n)
	}
}

// Leaves returns every device name in the subtree rooted at n, in a
// deterministic (sorted) order.
func (n *Node) Leaves() []string {
	var out []string
	var walk func(m *Node)
	walk = func(m *Node) {
		out = append(out, m.Devices...)
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	sort.Strings(out)
	return out
}

// Clone deep-copies the subtree (nil-safe).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Devices = append([]string(nil), n.Devices...)
	c.Pairs = append([][2]string(nil), n.Pairs...)
	c.Selfs = append([]string(nil), n.Selfs...)
	if n.Units != nil {
		c.Units = make(map[string][]string, len(n.Units))
		for k, v := range n.Units {
			c.Units[k] = append([]string(nil), v...)
		}
	}
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return &c
}

// Normalize canonicalizes the subtree in place (nil-safe): pair
// endpoints ordered, member lists sorted, children ordered by their
// names, and empty lists nil. The normalized form is also the form
// that solves, so different spellings of one tree hash and behave
// identically.
func (n *Node) Normalize() {
	if n == nil {
		return
	}
	sort.Strings(n.Devices)
	for pi := range n.Pairs {
		if n.Pairs[pi][0] > n.Pairs[pi][1] {
			n.Pairs[pi][0], n.Pairs[pi][1] = n.Pairs[pi][1], n.Pairs[pi][0]
		}
	}
	sort.Slice(n.Pairs, func(i, j int) bool {
		if n.Pairs[i][0] != n.Pairs[j][0] {
			return n.Pairs[i][0] < n.Pairs[j][0]
		}
		return n.Pairs[i][1] < n.Pairs[j][1]
	})
	sort.Strings(n.Selfs)
	for _, devs := range n.Units {
		sort.Strings(devs)
	}
	for _, c := range n.Children {
		c.Normalize()
	}
	sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Name < n.Children[j].Name })
	if len(n.Devices) == 0 {
		n.Devices = nil
	}
	if len(n.Pairs) == 0 {
		n.Pairs = nil
	}
	if len(n.Selfs) == 0 {
		n.Selfs = nil
	}
	if len(n.Children) == 0 {
		n.Children = nil
	}
}

// Validate checks the subtree: unique device ownership, constraint
// payloads referencing existing devices/children, and per-kind sanity.
func (n *Node) Validate() error {
	seen := map[string]string{}
	var walk func(m *Node) error
	walk = func(m *Node) error {
		for _, d := range m.Devices {
			if prev, ok := seen[d]; ok {
				return fmt.Errorf("constraint: device %q owned by nodes %q and %q", d, prev, m.Name)
			}
			seen[d] = m.Name
		}
		local := map[string]bool{}
		for _, d := range m.Devices {
			local[d] = true
		}
		for _, c := range m.Children {
			if local[c.Name] {
				return fmt.Errorf("constraint: node %q has device and child both named %q", m.Name, c.Name)
			}
			local[c.Name] = true
		}
		switch m.Kind {
		case KindSymmetry:
			if len(m.Pairs) == 0 && len(m.Selfs) == 0 {
				return fmt.Errorf("constraint: symmetry node %q has no pairs or selfs", m.Name)
			}
			for _, p := range m.Pairs {
				if !local[p[0]] || !local[p[1]] {
					return fmt.Errorf("constraint: symmetry node %q references unknown member (%s,%s)",
						m.Name, p[0], p[1])
				}
			}
			for _, s := range m.Selfs {
				if !local[s] {
					return fmt.Errorf("constraint: symmetry node %q references unknown member %s", m.Name, s)
				}
			}
		case KindCommonCentroid:
			if len(m.Units) < 2 {
				return fmt.Errorf("constraint: common-centroid node %q needs >= 2 owners", m.Name)
			}
			for o, units := range m.Units {
				if len(units) == 0 {
					return fmt.Errorf("constraint: common-centroid node %q: owner %q empty", m.Name, o)
				}
				for _, u := range units {
					if !local[u] {
						return fmt.Errorf("constraint: common-centroid node %q: unknown unit %q", m.Name, u)
					}
				}
			}
		}
		for _, c := range m.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(n)
}

// memberRect resolves a symmetry member of node n — either a direct
// device or a child sub-circuit — to a rectangle in the placement: the
// device rectangle, or the bounding box of the child's leaves.
func (n *Node) memberRect(name string, p geom.Placement) (geom.Rect, []string, error) {
	if c := n.Child(name); c != nil {
		leaves := c.Leaves()
		sub := geom.Placement{}
		for _, l := range leaves {
			r, ok := p[l]
			if !ok {
				return geom.Rect{}, nil, fmt.Errorf("constraint: device %q of sub-circuit %q missing", l, name)
			}
			sub[l] = r
		}
		return sub.BBox(), leaves, nil
	}
	r, ok := p[name]
	if !ok {
		return geom.Rect{}, nil, fmt.Errorf("constraint: device %q missing from placement", name)
	}
	return r, []string{name}, nil
}

// Check validates the placement against every constraint in the
// subtree. Hierarchical symmetry is checked strictly: paired
// sub-circuits must be exact mirror images device-by-device, matching
// the symmetry-island placements of Fig. 4.
func (n *Node) Check(p geom.Placement) error {
	switch n.Kind {
	case KindSymmetry:
		if err := n.checkSymmetry(p); err != nil {
			return err
		}
	case KindCommonCentroid:
		cc := CommonCentroid{Name: n.Name, Units: n.Units}
		if err := cc.Check(p); err != nil {
			return err
		}
	case KindProximity:
		members := append([]string{}, n.Devices...)
		for _, c := range n.Children {
			members = append(members, c.Leaves()...)
		}
		pr := Proximity{Name: n.Name, Members: members}
		if err := pr.Check(p); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := c.Check(p); err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) checkSymmetry(p geom.Placement) error {
	// Derive the axis from the first pair or self member (bounding
	// boxes for sub-circuit members), then verify every member.
	axis2, ok := n.symmetryAxis2(p)
	if !ok {
		return fmt.Errorf("constraint: symmetry node %q: cannot derive axis", n.Name)
	}
	for _, pr := range n.Pairs {
		ra, la, err := n.memberRect(pr[0], p)
		if err != nil {
			return err
		}
		rb, lb, err := n.memberRect(pr[1], p)
		if err != nil {
			return err
		}
		if !geom.SymmetricPairAboutX(ra, rb, axis2) {
			return fmt.Errorf("constraint: symmetry node %q: pair (%s,%s) outlines not mirrored",
				n.Name, pr[0], pr[1])
		}
		// Sub-circuit pairs must mirror device-by-device. The two leaf
		// lists correspond by construction order; we instead check
		// set-wise: every mirrored rectangle of A must appear in B.
		if len(la) > 1 || len(lb) > 1 {
			if err := mirroredSetEqual(p, la, lb, axis2); err != nil {
				return fmt.Errorf("constraint: symmetry node %q pair (%s,%s): %v",
					n.Name, pr[0], pr[1], err)
			}
		}
	}
	for _, s := range n.Selfs {
		r, leaves, err := n.memberRect(s, p)
		if err != nil {
			return err
		}
		if !geom.SelfSymmetricAboutX(r, axis2) {
			return fmt.Errorf("constraint: symmetry node %q: self member %q off axis", n.Name, s)
		}
		// A self-symmetric sub-circuit must itself be mirror-symmetric.
		if len(leaves) > 1 {
			if err := mirroredSetEqual(p, leaves, leaves, axis2); err != nil {
				return fmt.Errorf("constraint: symmetry node %q self member %q: %v", n.Name, s, err)
			}
		}
	}
	return nil
}

func (n *Node) symmetryAxis2(p geom.Placement) (int, bool) {
	for _, pr := range n.Pairs {
		ra, _, errA := n.memberRect(pr[0], p)
		rb, _, errB := n.memberRect(pr[1], p)
		if errA != nil || errB != nil {
			return 0, false
		}
		return (ra.CenterX2() + rb.CenterX2()) / 2, true
	}
	for _, s := range n.Selfs {
		r, _, err := n.memberRect(s, p)
		if err != nil {
			return 0, false
		}
		return r.CenterX2(), true
	}
	return 0, false
}

// mirroredSetEqual checks that mirroring every rectangle of la about
// the axis yields exactly the multiset of rectangles of lb.
func mirroredSetEqual(p geom.Placement, la, lb []string, axis2 int) error {
	count := map[geom.Rect]int{}
	for _, b := range lb {
		count[p[b]]++
	}
	for _, a := range la {
		m := p[a].MirrorX(axis2)
		if count[m] == 0 {
			return fmt.Errorf("mirror of %q (%v) has no counterpart", a, m)
		}
		count[m]--
	}
	return nil
}
