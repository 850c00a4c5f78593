package placer

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/constraint"
)

// Module is one placeable rectangle of W × H layout units.
type Module struct {
	Name string `json:"name"`
	W    int    `json:"w"`
	H    int    `json:"h"`
}

// SymGroup is a symmetry group over module ids: Pairs mirror about a
// shared vertical axis, Selfs are self-symmetric on it. A module may
// belong to at most one group.
type SymGroup struct {
	Pairs [][2]int `json:"pairs,omitempty"`
	Selfs []int    `json:"selfs,omitempty"`
}

// Objective carries the weights of the composable cost model every
// engine optimizes. Weights are literal: a zero WireWeight means no
// wirelength term, while a zero AreaWeight keeps the default area
// weight of 1. ProxWeight applies to the flat engines' proximity pull
// term; the hierarchical engine always enforces proximity through its
// fragments penalty.
type Objective struct {
	AreaWeight float64 `json:"area_weight,omitempty"`
	WireWeight float64 `json:"wire_weight,omitempty"`
	// OutlineW/OutlineH, when both positive, add a fixed-outline term:
	// a quadratic penalty on the bounding box exceeding the outline.
	OutlineW int `json:"outline_w,omitempty"`
	OutlineH int `json:"outline_h,omitempty"`
	// OutlineWeight scales that penalty (0 = heuristic default).
	OutlineWeight float64 `json:"outline_weight,omitempty"`
	ProxWeight    float64 `json:"prox_weight,omitempty"`
	ThermalWeight float64 `json:"thermal_weight,omitempty"`
	ThermalSigma  float64 `json:"thermal_sigma,omitempty"`
}

// Hierarchy node kinds.
const (
	KindNone           = constraint.KindNone
	KindSymmetry       = constraint.KindSymmetry
	KindCommonCentroid = constraint.KindCommonCentroid
	KindProximity      = constraint.KindProximity
)

// Node is one node of the layout design hierarchy (the constraint
// tree the hierarchical engines consume). Devices name modules;
// symmetry Pairs and Selfs may name either modules or child nodes (a
// child participates as one rigid object).
type Node = constraint.Node

// Problem is the canonical placement instance every consumer of this
// repository speaks: the CLI, the daemon, the engines and the
// examples all use it, and its JSON tags are the wire format's
// spelling (internal/wire adds the version, strict decoding and
// content hashing around it). It unifies the flat inputs (modules,
// id-based symmetry groups, nets, proximity groups) with the optional
// design hierarchy; engines that only understand one of the two
// derive what they need (flat engines bind hierarchy-spelled
// symmetry, the hierarchical engine synthesizes a tree from flat
// groups).
type Problem struct {
	Name    string   `json:"name,omitempty"`
	Modules []Module `json:"modules"`
	// Symmetry groups over module ids (vertical axes).
	Symmetry []SymGroup `json:"symmetry,omitempty"`
	// Nets lists signal nets as module-id sets for wirelength.
	Nets [][]int `json:"nets,omitempty"`
	// Proximity lists proximity groups as module-id sets.
	Proximity [][]int `json:"proximity,omitempty"`
	// Power gives per-module dissipated power for the thermal term
	// (nil = area-normalized default).
	Power     []float64 `json:"power,omitempty"`
	Objective Objective `json:"objective"`
	Hierarchy *Node     `json:"hierarchy,omitempty"`
}

// N returns the module count.
func (p *Problem) N() int { return len(p.Modules) }

// Geometry ceilings: module dimensions and counts are bounded so
// packing coordinate sums and area products stay far inside int64 on
// untrusted input (MaxModules·MaxDim² ≤ 2⁵⁷).
const (
	MaxModules = 100_000
	MaxDim     = 1 << 20
)

// kinds maps hierarchy kind strings to validity.
var kinds = map[string]bool{KindNone: true, KindSymmetry: true, KindCommonCentroid: true, KindProximity: true}

// Validate checks the problem's internal consistency without
// modifying it. Solve runs it automatically; builders assembling
// problems programmatically can run it early for better error
// locality.
func (p *Problem) Validate() error {
	n := len(p.Modules)
	if n == 0 {
		return fmt.Errorf("placer: problem has no modules")
	}
	if n > MaxModules {
		return fmt.Errorf("placer: %d modules over the limit of %d", n, MaxModules)
	}
	names := make(map[string]bool, n)
	for i, m := range p.Modules {
		if m.Name == "" {
			return fmt.Errorf("placer: module %d has no name", i)
		}
		if names[m.Name] {
			return fmt.Errorf("placer: duplicate module name %q", m.Name)
		}
		names[m.Name] = true
		if m.W <= 0 || m.H <= 0 {
			return fmt.Errorf("placer: module %q has non-positive size %dx%d", m.Name, m.W, m.H)
		}
		if m.W > MaxDim || m.H > MaxDim {
			return fmt.Errorf("placer: module %q size %dx%d over the limit of %d", m.Name, m.W, m.H, MaxDim)
		}
	}
	inGroup := make(map[int]bool)
	for gi, g := range p.Symmetry {
		if len(g.Pairs) == 0 && len(g.Selfs) == 0 {
			return fmt.Errorf("placer: symmetry group %d is empty", gi)
		}
		check := func(m int) error {
			if m < 0 || m >= n {
				return fmt.Errorf("placer: symmetry group %d references module %d out of range [0,%d)", gi, m, n)
			}
			if inGroup[m] {
				return fmt.Errorf("placer: module %d appears twice across symmetry groups", m)
			}
			inGroup[m] = true
			return nil
		}
		for _, pr := range g.Pairs {
			if pr[0] == pr[1] {
				return fmt.Errorf("placer: symmetry group %d pairs module %d with itself", gi, pr[0])
			}
			if err := check(pr[0]); err != nil {
				return err
			}
			if err := check(pr[1]); err != nil {
				return err
			}
		}
		for _, s := range g.Selfs {
			if err := check(s); err != nil {
				return err
			}
		}
	}
	// stamp[m] is the number of the last list (counting nets, then
	// proximity groups, from 1) seen to contain m, so one slice finds
	// the duplicates of every list without being cleared.
	var stamp []int
	mark := 0
	idLists := func(what string, lists [][]int, minLen int) error {
		if len(lists) > 0 && stamp == nil {
			stamp = make([]int, n)
		}
		for li, list := range lists {
			if len(list) < minLen {
				return fmt.Errorf("placer: %s %d has fewer than %d members", what, li, minLen)
			}
			mark++
			for _, m := range list {
				if m < 0 || m >= n {
					return fmt.Errorf("placer: %s %d references module %d out of range [0,%d)", what, li, m, n)
				}
				if stamp[m] == mark {
					return fmt.Errorf("placer: %s %d lists module %d twice", what, li, m)
				}
				stamp[m] = mark
			}
		}
		return nil
	}
	if err := idLists("net", p.Nets, 2); err != nil {
		return err
	}
	if err := idLists("proximity group", p.Proximity, 2); err != nil {
		return err
	}
	if p.Power != nil && len(p.Power) != n {
		return fmt.Errorf("placer: power has %d entries for %d modules", len(p.Power), n)
	}
	for i, pw := range p.Power {
		if pw < 0 || math.IsNaN(pw) || math.IsInf(pw, 0) {
			return fmt.Errorf("placer: power[%d] = %v is not a finite non-negative number", i, pw)
		}
	}
	if err := p.Objective.validate(); err != nil {
		return err
	}
	if p.Hierarchy != nil {
		owned := make(map[string]bool)
		if err := validateNode(p.Hierarchy, names, owned); err != nil {
			return err
		}
	}
	return nil
}

func (o *Objective) validate() error {
	weights := []struct {
		name string
		v    float64
	}{
		{"area weight", o.AreaWeight},
		{"wire weight", o.WireWeight},
		{"outline weight", o.OutlineWeight},
		{"proximity weight", o.ProxWeight},
		{"thermal weight", o.ThermalWeight},
		{"thermal sigma", o.ThermalSigma},
	}
	for _, w := range weights {
		if w.v < 0 || math.IsNaN(w.v) || math.IsInf(w.v, 0) {
			return fmt.Errorf("placer: objective %s = %v is not a finite non-negative number", w.name, w.v)
		}
	}
	if o.OutlineW < 0 || o.OutlineH < 0 {
		return fmt.Errorf("placer: negative outline %dx%d", o.OutlineW, o.OutlineH)
	}
	if (o.OutlineW > 0) != (o.OutlineH > 0) {
		return fmt.Errorf("placer: outline needs both dimensions (got %dx%d)", o.OutlineW, o.OutlineH)
	}
	return nil
}

// validateNode walks a hierarchy node: kinds must be known, device
// references must name modules not owned by another node, and
// symmetry pairs/selfs must name this node's devices or children.
func validateNode(nd *Node, modules map[string]bool, owned map[string]bool) error {
	if !kinds[nd.Kind] {
		return fmt.Errorf("placer: hierarchy node %q has unknown kind %q", nd.Name, nd.Kind)
	}
	local := make(map[string]bool, len(nd.Devices)+len(nd.Children))
	for _, d := range nd.Devices {
		if !modules[d] {
			return fmt.Errorf("placer: hierarchy node %q references unknown module %q", nd.Name, d)
		}
		if owned[d] {
			return fmt.Errorf("placer: module %q owned by two hierarchy nodes", d)
		}
		owned[d] = true
		local[d] = true
	}
	for _, c := range nd.Children {
		// Child names are load-bearing identities — pairs/selfs/units
		// resolve against them, and flat-group derivation resolves
		// module names globally — so they must be unambiguous both
		// within the node and against the module namespace.
		if c.Name == "" {
			return fmt.Errorf("placer: hierarchy node %q has an unnamed child", nd.Name)
		}
		if local[c.Name] {
			return fmt.Errorf("placer: hierarchy node %q has ambiguous member name %q", nd.Name, c.Name)
		}
		if modules[c.Name] {
			return fmt.Errorf("placer: hierarchy node name %q collides with a module name", c.Name)
		}
		local[c.Name] = true
	}
	symUsed := make(map[string]bool, 2*len(nd.Pairs)+len(nd.Selfs))
	ref := func(name string) error {
		if !local[name] {
			return fmt.Errorf("placer: hierarchy node %q symmetry references %q, which is neither a device nor a child of it", nd.Name, name)
		}
		if symUsed[name] {
			return fmt.Errorf("placer: hierarchy node %q symmetry lists %q twice", nd.Name, name)
		}
		symUsed[name] = true
		return nil
	}
	for _, pr := range nd.Pairs {
		if pr[0] == pr[1] {
			return fmt.Errorf("placer: hierarchy node %q pairs %q with itself", nd.Name, pr[0])
		}
		if err := ref(pr[0]); err != nil {
			return err
		}
		if err := ref(pr[1]); err != nil {
			return err
		}
	}
	for _, s := range nd.Selfs {
		if err := ref(s); err != nil {
			return err
		}
	}
	unitNames := make([]string, 0, len(nd.Units))
	for name := range nd.Units {
		unitNames = append(unitNames, name)
	}
	sort.Strings(unitNames) // deterministic error choice
	for _, name := range unitNames {
		devs := nd.Units[name]
		if len(devs) == 0 {
			return fmt.Errorf("placer: hierarchy node %q common-centroid unit %q is empty", nd.Name, name)
		}
		for _, d := range devs {
			if !local[d] {
				return fmt.Errorf("placer: hierarchy node %q common-centroid unit %q references %q, which is neither a device nor a child of it", nd.Name, name, d)
			}
		}
	}
	for _, c := range nd.Children {
		if err := validateNode(c, modules, owned); err != nil {
			return err
		}
	}
	return nil
}

// Normalize rewrites the problem into its canonical form: pair
// endpoints ordered, member lists sorted, group and net lists sorted
// lexicographically, and empty slices nil. Two semantically identical
// problems normalize to equal values — this is what makes the wire
// format's content hash a content address. Objective weights whose
// zero value means a fixed default get that default written
// explicitly (area weight 1); weights whose zero means "derived per
// problem" (outline weight heuristic, thermal sigma) keep 0 as their
// canonical spelling. Solve normalizes a copy automatically.
func (p *Problem) Normalize() {
	if p.Objective.AreaWeight == 0 {
		p.Objective.AreaWeight = 1
	}
	for gi := range p.Symmetry {
		g := &p.Symmetry[gi]
		for pi := range g.Pairs {
			if g.Pairs[pi][0] > g.Pairs[pi][1] {
				g.Pairs[pi][0], g.Pairs[pi][1] = g.Pairs[pi][1], g.Pairs[pi][0]
			}
		}
		sort.Slice(g.Pairs, func(i, j int) bool {
			if g.Pairs[i][0] != g.Pairs[j][0] {
				return g.Pairs[i][0] < g.Pairs[j][0]
			}
			return g.Pairs[i][1] < g.Pairs[j][1]
		})
		sort.Ints(g.Selfs)
		if len(g.Pairs) == 0 {
			g.Pairs = nil
		}
		if len(g.Selfs) == 0 {
			g.Selfs = nil
		}
	}
	sort.Slice(p.Symmetry, func(i, j int) bool {
		return symKey(p.Symmetry[i]) < symKey(p.Symmetry[j])
	})
	normalizeIDLists(p.Nets)
	normalizeIDLists(p.Proximity)
	if len(p.Symmetry) == 0 {
		p.Symmetry = nil
	}
	if len(p.Nets) == 0 {
		p.Nets = nil
	}
	if len(p.Proximity) == 0 {
		p.Proximity = nil
	}
	if len(p.Power) == 0 {
		p.Power = nil
	}
	p.Hierarchy.Normalize()
}

// symKey is a group's smallest member, its canonical sort key (groups
// are disjoint, so keys are distinct on valid problems).
func symKey(g SymGroup) int {
	key := math.MaxInt
	for _, pr := range g.Pairs {
		if pr[0] < key {
			key = pr[0]
		}
	}
	for _, s := range g.Selfs {
		if s < key {
			key = s
		}
	}
	return key
}

func normalizeIDLists(lists [][]int) {
	for _, l := range lists {
		sort.Ints(l)
	}
	sort.Slice(lists, func(i, j int) bool {
		a, b := lists[i], lists[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// Clone deep-copies the problem, preserving nil-versus-empty
// distinctions (they matter for canonical encodings).
func (p *Problem) Clone() *Problem {
	c := *p
	c.Modules = append([]Module(nil), p.Modules...)
	if p.Symmetry != nil {
		c.Symmetry = make([]SymGroup, len(p.Symmetry))
		for i, g := range p.Symmetry {
			c.Symmetry[i] = SymGroup{
				Pairs: clonePairs(g.Pairs),
				Selfs: append([]int(nil), g.Selfs...),
			}
		}
	}
	c.Nets = cloneIDLists(p.Nets)
	c.Proximity = cloneIDLists(p.Proximity)
	c.Power = append([]float64(nil), p.Power...)
	c.Hierarchy = p.Hierarchy.Clone()
	return &c
}

func clonePairs(ps [][2]int) [][2]int {
	return append([][2]int(nil), ps...)
}

func cloneIDLists(lists [][]int) [][]int {
	if lists == nil {
		return nil
	}
	out := make([][]int, len(lists))
	for i, l := range lists {
		out[i] = append([]int(nil), l...)
	}
	return out
}
