// Package constraint models the analog layout constraints of the paper
// (Section III.A, Fig. 3): symmetry groups, common-centroid groups and
// proximity groups, plus the hierarchical constraint trees of Fig. 2 in
// which a symmetric sub-circuit may itself contain common-centroid or
// symmetric sub-circuits.
//
// Every constraint kind comes with a placement validator, so that any
// placer in this repository — stochastic or deterministic, flat or
// hierarchical — can be checked against the same ground truth.
//
// Node, the hierarchy type, is the only design-hierarchy type in the
// repository: placer.Node aliases it, and its JSON tags are the wire
// spelling, so the tree a request decodes into is the tree the
// hierarchical engines pack. The flat engines and hbstar derive
// proximity groups and id-based symmetry groups from a tree through
// its two shared walkers, ProximityGroups and SymmetryGroups.
package constraint

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// SymmetryGroup requires pairs of devices to be placed as mirror images
// about a common axis and self-symmetric devices to be centered on it
// (Section II of the paper; Fig. 3(b)). The axis itself is not fixed in
// advance: a placement satisfies the group if *some* axis works.
type SymmetryGroup struct {
	Name     string
	Pairs    [][2]string // (x, sym(x)) pairs
	Selfs    []string    // self-symmetric devices (x == sym(x))
	Vertical bool        // true: vertical axis (mirror in x); false: horizontal
}

// NewVerticalSymmetry returns a symmetry group with a vertical axis.
func NewVerticalSymmetry(name string, pairs [][2]string, selfs ...string) SymmetryGroup {
	return SymmetryGroup{Name: name, Pairs: pairs, Selfs: selfs, Vertical: true}
}

// Members returns all device names in the group, pairs first, sorted
// within each category.
func (g SymmetryGroup) Members() []string {
	var out []string
	for _, p := range g.Pairs {
		out = append(out, p[0], p[1])
	}
	out = append(out, g.Selfs...)
	return out
}

// Size returns the number of devices in the group (2p + s in the
// paper's Lemma).
func (g SymmetryGroup) Size() int { return 2*len(g.Pairs) + len(g.Selfs) }

// Sym returns the symmetric counterpart of the named device and whether
// the device belongs to the group. Self-symmetric devices map to
// themselves.
func (g SymmetryGroup) Sym(name string) (string, bool) {
	for _, p := range g.Pairs {
		if p[0] == name {
			return p[1], true
		}
		if p[1] == name {
			return p[0], true
		}
	}
	for _, s := range g.Selfs {
		if s == name {
			return name, true
		}
	}
	return "", false
}

// Contains reports whether the named device belongs to the group.
func (g SymmetryGroup) Contains(name string) bool {
	_, ok := g.Sym(name)
	return ok
}

// Validate checks structural sanity: no device appears twice, and the
// group is non-empty.
func (g SymmetryGroup) Validate() error {
	if g.Size() == 0 {
		return fmt.Errorf("constraint: symmetry group %q is empty", g.Name)
	}
	seen := map[string]bool{}
	for _, m := range g.Members() {
		if m == "" {
			return fmt.Errorf("constraint: symmetry group %q has empty member name", g.Name)
		}
		if seen[m] {
			return fmt.Errorf("constraint: device %q appears twice in symmetry group %q", m, g.Name)
		}
		seen[m] = true
	}
	return nil
}

// Axis2 returns the doubled axis coordinate implied by the placement,
// derived from the first pair (or first self-symmetric device), and
// whether all members are present in the placement.
func (g SymmetryGroup) Axis2(p geom.Placement) (int, bool) {
	for _, pr := range g.Pairs {
		a, oka := p[pr[0]]
		b, okb := p[pr[1]]
		if !oka || !okb {
			return 0, false
		}
		if g.Vertical {
			return (a.CenterX2() + b.CenterX2()) / 2, true
		}
		return (a.CenterY2() + b.CenterY2()) / 2, true
	}
	for _, s := range g.Selfs {
		r, ok := p[s]
		if !ok {
			return 0, false
		}
		if g.Vertical {
			return r.CenterX2(), true
		}
		return r.CenterY2(), true
	}
	return 0, false
}

// Check reports whether the placement satisfies the symmetry group: a
// single axis exists about which every pair mirrors and every
// self-symmetric device is centered. It returns a descriptive error on
// the first violation.
func (g SymmetryGroup) Check(p geom.Placement) error {
	axis2, ok := g.Axis2(p)
	if !ok {
		return fmt.Errorf("constraint: symmetry group %q: members missing from placement", g.Name)
	}
	for _, pr := range g.Pairs {
		a, b := p[pr[0]], p[pr[1]]
		var good bool
		if g.Vertical {
			good = geom.SymmetricPairAboutX(a, b, axis2)
		} else {
			good = geom.SymmetricPairAboutY(a, b, axis2)
		}
		if !good {
			return fmt.Errorf("constraint: symmetry group %q: pair (%s,%s) not mirrored about axis2=%d",
				g.Name, pr[0], pr[1], axis2)
		}
	}
	for _, s := range g.Selfs {
		r := p[s]
		var good bool
		if g.Vertical {
			good = geom.SelfSymmetricAboutX(r, axis2)
		} else {
			good = geom.SelfSymmetricAboutY(r, axis2)
		}
		if !good {
			return fmt.Errorf("constraint: symmetry group %q: self-symmetric %s not on axis2=%d",
				g.Name, s, axis2)
		}
	}
	return nil
}

// CommonCentroid requires the unit modules of each owning device to
// share one centroid (Fig. 3(a)): typically a current mirror or
// differential pair split into interdigitated units.
type CommonCentroid struct {
	Name  string
	Units map[string][]string // owner device -> its unit module names
}

// Owners returns the owning device names in sorted order.
func (g CommonCentroid) Owners() []string {
	out := make([]string, 0, len(g.Units))
	for o := range g.Units {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Members returns every unit module name in the group.
func (g CommonCentroid) Members() []string {
	var out []string
	for _, o := range g.Owners() {
		out = append(out, g.Units[o]...)
	}
	return out
}

// Validate checks that every owner has at least one unit and no unit is
// shared.
func (g CommonCentroid) Validate() error {
	if len(g.Units) < 2 {
		return fmt.Errorf("constraint: common-centroid group %q needs >= 2 owners", g.Name)
	}
	seen := map[string]bool{}
	for o, units := range g.Units {
		if len(units) == 0 {
			return fmt.Errorf("constraint: common-centroid group %q: owner %q has no units", g.Name, o)
		}
		for _, u := range units {
			if seen[u] {
				return fmt.Errorf("constraint: unit %q in two owners of group %q", u, g.Name)
			}
			seen[u] = true
		}
	}
	return nil
}

// Check reports whether every owner's units share the same centroid.
// Centroids are compared exactly using coordinates scaled by
// 2·lcm-free unit counts: each owner's centroid is the average of its
// unit centers, so we compare sum(center2)·N_other across owners
// pairwise to stay in integers.
func (g CommonCentroid) Check(p geom.Placement) error {
	type sums struct {
		sx, sy int64
		n      int64
	}
	all := map[string]sums{}
	for o, units := range g.Units {
		var s sums
		for _, u := range units {
			r, ok := p[u]
			if !ok {
				return fmt.Errorf("constraint: common-centroid group %q: unit %q missing", g.Name, u)
			}
			s.sx += int64(r.CenterX2())
			s.sy += int64(r.CenterY2())
			s.n++
		}
		all[o] = s
	}
	owners := g.Owners()
	ref := all[owners[0]]
	for _, o := range owners[1:] {
		s := all[o]
		// Compare sx/n == ref.sx/ref.n exactly via cross-multiplication.
		if s.sx*ref.n != ref.sx*s.n || s.sy*ref.n != ref.sy*s.n {
			return fmt.Errorf("constraint: common-centroid group %q: centroid of %q differs from %q",
				g.Name, o, owners[0])
		}
	}
	return nil
}

// Proximity requires a set of modules to form one connected region so
// the sub-circuit can share a well or guard ring (Fig. 3(c)). The
// region need not be rectangular.
type Proximity struct {
	Name    string
	Members []string
}

// Validate checks the group is non-empty with unique members.
func (g Proximity) Validate() error {
	if len(g.Members) == 0 {
		return fmt.Errorf("constraint: proximity group %q is empty", g.Name)
	}
	seen := map[string]bool{}
	for _, m := range g.Members {
		if seen[m] {
			return fmt.Errorf("constraint: device %q appears twice in proximity group %q", m, g.Name)
		}
		seen[m] = true
	}
	return nil
}

// Check reports whether the members form a single edge-connected
// cluster: the adjacency graph where two modules are adjacent if their
// rectangles share a boundary segment of positive length (or overlap)
// must be connected.
func (g Proximity) Check(p geom.Placement) error {
	n := len(g.Members)
	if n == 0 {
		return fmt.Errorf("constraint: proximity group %q is empty", g.Name)
	}
	rects := make([]geom.Rect, n)
	for i, m := range g.Members {
		r, ok := p[m]
		if !ok {
			return fmt.Errorf("constraint: proximity group %q: member %q missing", g.Name, m)
		}
		rects[i] = r
	}
	// Union-find over touching rectangles.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Touching(rects[i], rects[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			return fmt.Errorf("constraint: proximity group %q: %q disconnected from %q",
				g.Name, g.Members[i], g.Members[0])
		}
	}
	return nil
}

// Touching reports whether two rectangles overlap or share a boundary
// segment of positive length (corner contact does not count: a shared
// point cannot carry a connected well).
func Touching(a, b geom.Rect) bool {
	if a.Intersects(b) {
		return true
	}
	xOverlap := min(a.X2(), b.X2()) - max(a.X, b.X)
	yOverlap := min(a.Y2(), b.Y2()) - max(a.Y, b.Y)
	// Vertical edge contact: x ranges abut, y ranges overlap.
	if (a.X2() == b.X || b.X2() == a.X) && yOverlap > 0 {
		return true
	}
	// Horizontal edge contact.
	if (a.Y2() == b.Y || b.Y2() == a.Y) && xOverlap > 0 {
		return true
	}
	return false
}

// Set bundles the flat constraints attached to one placement problem.
type Set struct {
	Symmetry       []SymmetryGroup
	CommonCentroid []CommonCentroid
	Proximity      []Proximity
}

// Validate checks every constraint and that no device is claimed by two
// symmetry groups (the paper's groups are disjoint).
func (s *Set) Validate() error {
	seen := map[string]string{}
	for _, g := range s.Symmetry {
		if err := g.Validate(); err != nil {
			return err
		}
		for _, m := range g.Members() {
			if prev, ok := seen[m]; ok {
				return fmt.Errorf("constraint: device %q in symmetry groups %q and %q", m, prev, g.Name)
			}
			seen[m] = g.Name
		}
	}
	for _, g := range s.CommonCentroid {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	for _, g := range s.Proximity {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Check validates a placement against every constraint in the set,
// returning the first violation.
func (s *Set) Check(p geom.Placement) error {
	for _, g := range s.Symmetry {
		if err := g.Check(p); err != nil {
			return err
		}
	}
	for _, g := range s.CommonCentroid {
		if err := g.Check(p); err != nil {
			return err
		}
	}
	for _, g := range s.Proximity {
		if err := g.Check(p); err != nil {
			return err
		}
	}
	return nil
}

// Violations returns all constraint violations (not just the first).
func (s *Set) Violations(p geom.Placement) []error {
	var out []error
	for _, g := range s.Symmetry {
		if err := g.Check(p); err != nil {
			out = append(out, err)
		}
	}
	for _, g := range s.CommonCentroid {
		if err := g.Check(p); err != nil {
			out = append(out, err)
		}
	}
	for _, g := range s.Proximity {
		if err := g.Check(p); err != nil {
			out = append(out, err)
		}
	}
	return out
}
