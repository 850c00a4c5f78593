package hbstar

import (
	"sort"

	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/thermal"
)

// objective is the hierarchical placer's module universe: every
// device of the hierarchy in sorted-name order, fixed when the forest
// is built. A forest packs straight into coordinate slices over it,
// and the model's diff finds the modules a perturbation actually
// displaced — a hierarchical move repacks everything but typically
// shifts only one subtree. The composite model itself is built by
// newModel and owned by the engine kernel.
type objective struct {
	names []string
	id    map[string]int
}

// newUniverse indexes the sorted device names.
func newUniverse(names []string) *objective {
	o := &objective{names: names, id: make(map[string]int, len(names))}
	for i, name := range names {
		o.id[name] = i
	}
	return o
}

// newModel builds the placer's cost model over the universe from one
// packing's module dimensions w, h. The terms mirror the historical
// hbstar cost — bounding-box area, weighted HPWL over the bench nets,
// and the proximity-fragments penalty scaled by the average module
// area — plus the optional fixed-outline and thermal-mismatch terms of the
// composable objective. Nets are indexed by sorted net name so runs
// stay deterministic despite the bench's map-shaped net list.
func (o *objective) newModel(p *Problem, w, h []int) *cost.Model {
	n := len(o.names)

	var nets [][]int
	netNames := make([]string, 0, len(p.Bench.Nets))
	for name := range p.Bench.Nets {
		netNames = append(netNames, name)
	}
	sort.Strings(netNames)
	for _, name := range netNames {
		var net []int
		for _, d := range p.Bench.Nets[name] {
			if m, ok := o.id[d]; ok {
				net = append(net, m)
			}
		}
		if len(net) >= 2 {
			nets = append(nets, net)
		}
	}

	areas := make([]int64, n)
	var moduleArea int64
	for i := range areas {
		areas[i] = int64(w[i]) * int64(h[i])
		moduleArea += areas[i]
	}
	avgArea := float64(moduleArea) / float64(max(1, n))

	model := cost.NewModel(n)
	aw := p.AreaWeight
	if aw == 0 {
		aw = 1
	}
	model.Add(aw, cost.NewArea())
	model.Add(p.WireWeight, cost.NewHPWL(nets))
	if groups := o.proximityGroups(p.Bench.Tree); len(groups) > 0 {
		model.Add(p.ProximityPenalty*avgArea, newFragTerm(groups))
	}
	if p.OutlineW > 0 && p.OutlineH > 0 {
		ow := p.OutlineWeight
		if ow == 0 {
			ow = cost.DefaultOutlineWeight(moduleArea)
		}
		model.Add(ow, cost.NewFixedOutline(p.OutlineW, p.OutlineH))
	}
	if p.ThermalWeight > 0 {
		if pairs := o.symPairs(p.Bench.Tree); len(pairs) > 0 {
			var powers []float64
			if p.Power != nil {
				powers = make([]float64, n)
				for i, name := range o.names {
					powers[i] = p.Power[name]
				}
			} else {
				powers = cost.AreaNormalizedPowers(areas)
			}
			model.Add(p.ThermalWeight, cost.NewThermal(
				&thermal.Field{Sigma: p.ThermalSigma}, powers, pairs))
		}
	}
	return model
}

// proximityGroups maps the tree's proximity groups (the shared
// constraint.Node.ProximityGroups walker) into module-id groups.
func (o *objective) proximityGroups(root *constraint.Node) [][]int {
	var groups [][]int
	for _, members := range root.ProximityGroups() {
		var grp []int
		for _, d := range members {
			if m, ok := o.id[d]; ok {
				grp = append(grp, m)
			}
		}
		if len(grp) >= 2 {
			groups = append(groups, grp)
		}
	}
	return groups
}

// symPairs collects device-level symmetric pairs for the thermal term.
func (o *objective) symPairs(root *constraint.Node) [][2]int {
	var pairs [][2]int
	var walk func(n *constraint.Node)
	walk = func(n *constraint.Node) {
		if n.Kind == constraint.KindSymmetry {
			for _, pr := range n.SymPairs {
				a, oka := o.id[pr[0]]
				b, okb := o.id[pr[1]]
				if oka && okb {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return pairs
}

// fragTerm is the proximity-connectivity penalty as a cost.Term: its
// value is the excess connected-component count over all proximity
// groups. Connectivity is a global property of a group's geometry —
// one module sliding away can split or heal any number of fragments —
// so Update recomputes the count (cheap: groups are small) and Undo
// restores the previous value.
type fragTerm struct {
	groups [][]int
	parent []int // union-find scratch over the largest group
	val    int
	prev   int
}

func newFragTerm(groups [][]int) *fragTerm {
	maxLen := 0
	for _, g := range groups {
		maxLen = max(maxLen, len(g))
	}
	return &fragTerm{groups: groups, parent: make([]int, maxLen)}
}

// Name implements cost.Term.
func (t *fragTerm) Name() string { return "proximity-frag" }

// Eval implements cost.Term.
func (t *fragTerm) Eval(c *cost.Coords) { t.val = t.compute(c) }

// Update implements cost.Term.
func (t *fragTerm) Update(c *cost.Coords, moved []int) {
	t.prev = t.val
	t.val = t.compute(c)
}

// Undo implements cost.Term.
func (t *fragTerm) Undo() { t.val = t.prev }

// Value implements cost.Term.
func (t *fragTerm) Value() float64 { return float64(t.val) }

// compute counts excess fragments over all groups under the current
// coordinates.
func (t *fragTerm) compute(c *cost.Coords) int {
	total := 0
	for _, grp := range t.groups {
		total += t.groupFragments(c, grp)
	}
	return total
}

func (t *fragTerm) groupFragments(c *cost.Coords, grp []int) int {
	n := len(grp)
	if n <= 1 {
		return 0
	}
	parent := t.parent[:n]
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
	rect := func(m int) geom.Rect {
		return geom.NewRect(c.X[m], c.Y[m], c.W[m], c.H[m])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if constraint.Touching(rect(grp[i]), rect(grp[j])) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	comps := 0
	for i := range parent {
		if find(i) == i {
			comps++
		}
	}
	return comps - 1
}
