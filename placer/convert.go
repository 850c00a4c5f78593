package placer

import (
	"fmt"

	"repro/internal/circuits"
	"repro/internal/place"
	"repro/internal/seqpair"
)

// flat converts the problem into the id-based placement problem every
// engine solves.
func (p *Problem) flat() (*place.Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Modules)
	pp := &place.Problem{
		Names:         make([]string, n),
		W:             make([]int, n),
		H:             make([]int, n),
		Nets:          cloneIDLists(p.Nets),
		ProxGroups:    cloneIDLists(p.Proximity),
		AreaWeight:    p.Objective.AreaWeight,
		WireWeight:    p.Objective.WireWeight,
		OutlineW:      p.Objective.OutlineW,
		OutlineH:      p.Objective.OutlineH,
		OutlineWeight: p.Objective.OutlineWeight,
		ProxWeight:    p.Objective.ProxWeight,
		ThermalWeight: p.Objective.ThermalWeight,
		ThermalSigma:  p.Objective.ThermalSigma,
		Power:         append([]float64(nil), p.Power...),
	}
	for i, m := range p.Modules {
		pp.Names[i] = m.Name
		pp.W[i] = m.W
		pp.H[i] = m.H
	}
	for _, g := range p.Symmetry {
		pp.Groups = append(pp.Groups, seqpair.Group{
			Pairs: clonePairs(g.Pairs),
			Selfs: append([]int(nil), g.Selfs...),
		})
	}
	if len(pp.Groups) == 0 && p.Hierarchy != nil {
		// Symmetry spelled only in the hierarchy still binds the flat
		// engines: one device-level group per symmetry node, as
		// place.FromBench derives them (pairs naming child nodes
		// rather than modules cannot be expressed flat and are
		// skipped).
		id := make(map[string]int, len(p.Modules))
		for i, m := range p.Modules {
			id[m.Name] = i
		}
		for pairs, selfs := range p.Hierarchy.SymmetryGroups(id) {
			pp.Groups = append(pp.Groups, seqpair.Group{Pairs: pairs, Selfs: selfs})
		}
	}
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	return pp, nil
}

// tree is the design hierarchy the hierarchical engines solve p's
// flat view under: a copy of the problem's hierarchy, or, when the
// problem carries none, one synthesized from the flat constraints (a
// symmetry node per symmetry group, a proximity node per proximity
// group, everything else directly at the root), so any problem can be
// solved hierarchically. Modules the hierarchy does not mention are
// attached to the root. p must be valid.
func (p *Problem) tree() *Node {
	tree := p.Hierarchy.Clone() // attachUncovered must not grow the caller's tree
	if tree == nil {
		name := p.Name
		if name == "" {
			name = "wire"
		}
		tree = p.synthesizeTree(name)
	}
	attachUncovered(tree, p.Modules)
	return tree
}

// synthesizeTree builds a one-level hierarchy from the flat symmetry
// and proximity groups.
func (p *Problem) synthesizeTree(name string) *Node {
	root := &Node{Name: name}
	for gi, g := range p.Symmetry {
		ch := &Node{
			Name: fmt.Sprintf("sym%d", gi),
			Kind: KindSymmetry,
		}
		for _, pr := range g.Pairs {
			a, b := p.Modules[pr[0]].Name, p.Modules[pr[1]].Name
			ch.Devices = append(ch.Devices, a, b)
			ch.Pairs = append(ch.Pairs, [2]string{a, b})
		}
		for _, s := range g.Selfs {
			n := p.Modules[s].Name
			ch.Devices = append(ch.Devices, n)
			ch.Selfs = append(ch.Selfs, n)
		}
		root.Children = append(root.Children, ch)
	}
	covered := make(map[int]bool)
	for _, g := range p.Symmetry {
		for _, pr := range g.Pairs {
			covered[pr[0]], covered[pr[1]] = true, true
		}
		for _, s := range g.Selfs {
			covered[s] = true
		}
	}
	for gi, grp := range p.Proximity {
		ch := &Node{
			Name: fmt.Sprintf("prox%d", gi),
			Kind: KindProximity,
		}
		for _, m := range grp {
			if covered[m] {
				continue // symmetry placement wins; proximity stays a soft cost
			}
			covered[m] = true
			ch.Devices = append(ch.Devices, p.Modules[m].Name)
		}
		if len(ch.Devices) >= 2 {
			root.Children = append(root.Children, ch)
		}
	}
	return root
}

// attachUncovered adds modules the tree does not own to the root, so
// the hierarchical engine places every module.
func attachUncovered(root *Node, modules []Module) {
	owned := make(map[string]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, d := range n.Devices {
			owned[d] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, m := range modules {
		if !owned[m.Name] {
			root.Devices = append(root.Devices, m.Name)
		}
	}
}

// fromBench ingests a benchmark circuit as a canonical problem: the
// flat view (modules, symmetry groups, nets, proximity groups)
// through place.FromBench — so the conventional area + HPWL objective
// is preserved — plus the design hierarchy, so the hierarchical
// engine sees the same tree a native run would. The result is
// normalized, and it takes b's tree rather than a copy: normalizing
// reorders that tree in place, so b must not be used afterwards.
func fromBench(b *circuits.Bench) (*Problem, error) {
	pp, err := place.FromBench(b)
	if err != nil {
		return nil, err
	}
	p := fromPlace(b.Name, pp)
	p.Hierarchy = b.Tree
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Normalize()
	return p, nil
}

// fromPlace lifts a flat placement problem into the canonical form.
// The result is normalized.
func fromPlace(name string, pp *place.Problem) *Problem {
	p := &Problem{
		Name:    name,
		Modules: make([]Module, pp.N()),
		Objective: Objective{
			AreaWeight:    pp.AreaWeight,
			WireWeight:    pp.WireWeight,
			OutlineW:      pp.OutlineW,
			OutlineH:      pp.OutlineH,
			OutlineWeight: pp.OutlineWeight,
			ProxWeight:    pp.ProxWeight,
			ThermalWeight: pp.ThermalWeight,
			ThermalSigma:  pp.ThermalSigma,
		},
		Nets:      cloneIDLists(pp.Nets),
		Proximity: cloneIDLists(pp.ProxGroups),
		Power:     append([]float64(nil), pp.Power...),
	}
	for i := 0; i < pp.N(); i++ {
		p.Modules[i] = Module{Name: pp.Names[i], W: pp.W[i], H: pp.H[i]}
	}
	for _, g := range pp.Groups {
		p.Symmetry = append(p.Symmetry, SymGroup{
			Pairs: clonePairs(g.Pairs),
			Selfs: append([]int(nil), g.Selfs...),
		})
	}
	p.Normalize()
	return p
}
