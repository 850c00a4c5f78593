// Package circuits provides the benchmark circuits of the paper: the
// Miller op amp of Fig. 6 (with its exact hierarchy tree), a folded-
// cascode amplifier, and synthetic stand-ins for the six Table I
// circuits (Miller V2, Comparator V2, Folded cascode, Buffer,
// biasynth, lnamixbias) with the same module counts (13, 10, 22, 46,
// 65, 110) and analog-realistic properties: strongly heterogeneous
// module sizes, matched symmetric pairs, and a hierarchy whose leaves
// are small basic module sets.
//
// The originals are industrial designs we do not have; what Table I
// measures — how enhanced shape functions behave as module count and
// size heterogeneity grow — depends on exactly the properties the
// generators reproduce; cmd/table1 and cmd/fig8 print what the
// reproduction measures on them.
package circuits

import (
	"fmt"
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/netlist"
)

// Bench is one placement benchmark: a netlist with footprints, the
// layout design hierarchy with constraints, and the signal nets used
// for wirelength costs.
type Bench struct {
	Name    string
	Circuit *netlist.Circuit
	// Tree is the layout design hierarchy (Fig. 2 of the paper); its
	// leaves are basic module sets.
	Tree *constraint.Node
	// Nets maps signal net names to the devices they connect.
	Nets map[string][]string
}

// Modules returns names, widths and heights of all devices in
// declaration order, the form placers consume.
func (b *Bench) Modules() (names []string, w, h []int) {
	for _, d := range b.Circuit.Devices {
		names = append(names, d.Name)
		w = append(w, d.FW)
		h = append(h, d.FH)
	}
	return names, w, h
}

// MillerOpAmp returns the two-stage Miller op amp of Fig. 6 with its
// published hierarchy: CORE = {DP{P1,P2}, CM1{N3,N4}, CM2{P5,P6,P7}},
// plus output device N8 and compensation capacitor C.
func MillerOpAmp() *Bench {
	c := netlist.NewCircuit("miller_opamp")
	add := func(name string, t netlist.DeviceType, d, g, s string, w, l float64, fw, fh int) {
		c.MustAdd(&netlist.Device{
			Name:   name,
			Type:   t,
			Ports:  map[string]string{"D": d, "G": g, "S": s, "B": s},
			Params: map[string]float64{"w": w, "l": l},
			FW:     fw,
			FH:     fh,
		})
	}
	// Differential pair (PMOS inputs), tail from CM2.
	add("P1", netlist.PMOS, "n1", "inp", "tail", 40, 1, 40, 20)
	add("P2", netlist.PMOS, "n2", "inn", "tail", 40, 1, 40, 20)
	// NMOS load mirror CM1 (N3 diode-connected).
	add("N3", netlist.NMOS, "n1", "n1", "gnd", 20, 2, 30, 16)
	add("N4", netlist.NMOS, "n2", "n1", "gnd", 20, 2, 30, 16)
	// PMOS bias mirror CM2 (P5 diode-connected, P6 tail, P7 output).
	add("P5", netlist.PMOS, "ibias", "ibias", "vdd", 10, 2, 24, 12)
	add("P6", netlist.PMOS, "tail", "ibias", "vdd", 20, 2, 24, 12)
	add("P7", netlist.PMOS, "out", "ibias", "vdd", 60, 2, 24, 12)
	// Output stage.
	add("N8", netlist.NMOS, "out", "n2", "gnd", 80, 1, 50, 30)
	// Compensation capacitor.
	c.MustAdd(&netlist.Device{
		Name:   "C",
		Type:   netlist.Capacitor,
		Ports:  map[string]string{"P": "n2", "N": "out"},
		Params: map[string]float64{"c": 2e-12},
		FW:     60,
		FH:     60,
	})

	tree := &constraint.Node{
		Name: "OPAMP",
		Children: []*constraint.Node{
			{
				Name: "CORE",
				Kind: constraint.KindProximity,
				Children: []*constraint.Node{
					{
						Name:    "DP",
						Kind:    constraint.KindSymmetry,
						Devices: []string{"P1", "P2"},
						Pairs:   [][2]string{{"P1", "P2"}},
					},
					{
						// At module level a two-device mirror is
						// placed as a matched symmetric pair; its
						// interdigitated common-centroid realization
						// lives inside the module (constraint
						// package's pattern generator).
						Name:    "CM1",
						Kind:    constraint.KindSymmetry,
						Devices: []string{"N3", "N4"},
						Pairs:   [][2]string{{"N3", "N4"}},
					},
					{
						Name:    "CM2",
						Kind:    constraint.KindProximity,
						Devices: []string{"P5", "P6", "P7"},
					},
				},
			},
		},
		Devices: []string{"N8", "C"},
	}
	return &Bench{
		Name:    "miller_opamp",
		Circuit: c,
		Tree:    tree,
		Nets:    c.SignalNets("vdd", "gnd"),
	}
}

// FoldedCascode returns a fully-differential folded-cascode amplifier
// (the circuit class of the layout-aware experiment of Fig. 10).
func FoldedCascode() *Bench {
	c := netlist.NewCircuit("folded_cascode")
	add := func(name string, t netlist.DeviceType, d, g, s string, w, l float64, fw, fh int) {
		c.MustAdd(&netlist.Device{
			Name:   name,
			Type:   t,
			Ports:  map[string]string{"D": d, "G": g, "S": s, "B": s},
			Params: map[string]float64{"w": w, "l": l},
			FW:     fw,
			FH:     fh,
		})
	}
	// Input differential pair (NMOS) with tail source.
	add("M1", netlist.NMOS, "fold_p", "inp", "tail", 60, 1, 44, 22)
	add("M2", netlist.NMOS, "fold_n", "inn", "tail", 60, 1, 44, 22)
	add("M0", netlist.NMOS, "tail", "vbn", "gnd", 40, 2, 36, 18)
	// PMOS current sources feeding the folding nodes.
	add("M3", netlist.PMOS, "fold_p", "vbp", "vdd", 50, 2, 40, 20)
	add("M4", netlist.PMOS, "fold_n", "vbp", "vdd", 50, 2, 40, 20)
	// PMOS cascodes.
	add("M5", netlist.PMOS, "outp", "vcp", "fold_p", 50, 1, 40, 20)
	add("M6", netlist.PMOS, "outn", "vcp", "fold_n", 50, 1, 40, 20)
	// NMOS cascodes and mirror loads.
	add("M7", netlist.NMOS, "outp", "vcn", "m_p", 30, 1, 30, 16)
	add("M8", netlist.NMOS, "outn", "vcn", "m_n", 30, 1, 30, 16)
	add("M9", netlist.NMOS, "m_p", "m_p", "gnd", 30, 2, 30, 16)
	add("M10", netlist.NMOS, "m_n", "m_p", "gnd", 30, 2, 30, 16)
	// Bias chain.
	add("MB1", netlist.PMOS, "vbp", "vbp", "vdd", 12, 2, 20, 12)
	add("MB2", netlist.NMOS, "vbn", "vbn", "gnd", 12, 2, 20, 12)

	tree := &constraint.Node{
		Name: "FC",
		Children: []*constraint.Node{
			{
				Name:    "DPIN",
				Kind:    constraint.KindSymmetry,
				Devices: []string{"M1", "M2"},
				Pairs:   [][2]string{{"M1", "M2"}},
			},
			{
				Name:    "PSRC",
				Kind:    constraint.KindSymmetry,
				Devices: []string{"M3", "M4"},
				Pairs:   [][2]string{{"M3", "M4"}},
			},
			{
				Name:    "PCAS",
				Kind:    constraint.KindSymmetry,
				Devices: []string{"M5", "M6"},
				Pairs:   [][2]string{{"M5", "M6"}},
			},
			{
				Name:    "NCAS",
				Kind:    constraint.KindSymmetry,
				Devices: []string{"M7", "M8"},
				Pairs:   [][2]string{{"M7", "M8"}},
			},
			{
				Name:    "NMIR",
				Kind:    constraint.KindSymmetry,
				Devices: []string{"M9", "M10"},
				Pairs:   [][2]string{{"M9", "M10"}},
			},
			{
				Name:    "BIAS",
				Kind:    constraint.KindProximity,
				Devices: []string{"MB1", "MB2", "M0"},
			},
		},
	}
	return &Bench{
		Name:    "folded_cascode",
		Circuit: c,
		Tree:    tree,
		Nets:    c.SignalNets("vdd", "gnd"),
	}
}

// tableISpec describes one Table I benchmark.
type tableISpec struct {
	name    string
	modules int
	seed    int64
}

// tableI lists the six circuits of Table I with their module counts.
var tableI = []tableISpec{
	{"miller_v2", 13, 101},
	{"comparator_v2", 10, 102},
	{"folded_casc", 22, 103},
	{"buffer", 46, 104},
	{"biasynth", 65, 105},
	{"lnamixbias", 110, 106},
}

// TableINames returns the benchmark names in the order of Table I.
func TableINames() []string {
	out := make([]string, len(tableI))
	for i, s := range tableI {
		out[i] = s.name
	}
	return out
}

// TableIBench builds the named Table I benchmark. It returns an error
// for unknown names.
func TableIBench(name string) (*Bench, error) {
	for _, s := range tableI {
		if s.name == name {
			return Synthetic(s.name, s.modules, s.seed), nil
		}
	}
	return nil, fmt.Errorf("circuits: unknown Table I benchmark %q", name)
}

// Names lists the names ByName accepts: the two hand-built op amps,
// then the Table I circuits in table order.
func Names() []string {
	return append([]string{"miller", "folded"}, TableINames()...)
}

// ByName builds a named benchmark: "miller" (MillerOpAmp), "folded"
// (FoldedCascode) or a Table I name (TableIBench).
func ByName(name string) (*Bench, error) {
	switch name {
	case "miller":
		return MillerOpAmp(), nil
	case "folded":
		return FoldedCascode(), nil
	}
	b, err := TableIBench(name)
	if err != nil {
		return nil, fmt.Errorf("circuits: unknown benchmark %q (have %v)", name, Names())
	}
	return b, nil
}

// TableIBenches builds all six Table I benchmarks.
func TableIBenches() []*Bench {
	out := make([]*Bench, len(tableI))
	for i, s := range tableI {
		out[i] = Synthetic(s.name, s.modules, s.seed)
	}
	return out
}

// Synthetic generates a deterministic analog-like benchmark with the
// given number of modules: a hierarchy tree whose leaves are basic
// module sets of 2–5 modules (differential pairs with matched
// dimensions, mirror groups, bias clusters), module sizes drawn from a
// heavy-tailed distribution (small matched transistors next to large
// capacitors — "cells very different in size", which the paper notes
// is typical for analog layout), and signal nets linking sibling
// blocks.
func Synthetic(name string, modules int, seed int64) *Bench {
	rng := rand.New(rand.NewSource(seed))
	c := netlist.NewCircuit(name)
	idx := 0
	newModule := func(fw, fh int) string {
		idx++
		dname := fmt.Sprintf("M%d", idx)
		c.MustAdd(&netlist.Device{
			Name:  dname,
			Type:  netlist.Block,
			Ports: map[string]string{"P": fmt.Sprintf("net_%s", dname)},
			FW:    fw,
			FH:    fh,
		})
		return dname
	}
	// Heavy-tailed size: mostly 8..40, occasionally 60..200 (capacitor
	// or inductor class). Even values keep symmetric packing exact.
	dim := func() int {
		if rng.Intn(100) < 12 {
			return 2 * (30 + rng.Intn(70))
		}
		return 2 * (4 + rng.Intn(16))
	}

	tree := buildSyntheticTree(name, modules, rng, newModule, dim, 0)

	// Signal nets: connect one device of each pair of sibling subtrees.
	nets := map[string][]string{}
	netID := 0
	var wire func(n *constraint.Node)
	wire = func(n *constraint.Node) {
		leavesOf := func(m *constraint.Node) []string { return m.Leaves() }
		for i := 0; i+1 < len(n.Children); i++ {
			a := leavesOf(n.Children[i])
			b := leavesOf(n.Children[i+1])
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			netID++
			nn := fmt.Sprintf("net%d", netID)
			nets[nn] = []string{a[rng.Intn(len(a))], b[rng.Intn(len(b))]}
		}
		for _, ch := range n.Children {
			wire(ch)
		}
	}
	wire(tree)

	return &Bench{Name: name, Circuit: c, Tree: tree, Nets: nets}
}

// buildSyntheticTree creates a hierarchy node covering the given
// number of modules, recursively splitting until leaves hold basic
// module sets.
func buildSyntheticTree(name string, modules int, rng *rand.Rand, newModule func(int, int) string, dim func() int, depth int) *constraint.Node {
	n := &constraint.Node{Name: name}
	if modules <= 5 {
		fillLeaf(n, modules, rng, newModule, dim)
		return n
	}
	// Split into 2..4 children.
	parts := 2 + rng.Intn(3)
	if parts > modules/2 {
		parts = modules / 2
	}
	remaining := modules
	for i := 0; i < parts; i++ {
		share := remaining / (parts - i)
		if i < parts-1 && share > 2 {
			share += rng.Intn(3) - 1
		}
		if share < 2 {
			share = 2
		}
		if share > remaining-(parts-i-1)*2 {
			share = remaining - (parts-i-1)*2
		}
		child := buildSyntheticTree(fmt.Sprintf("%s_%d", name, i), share, rng, newModule, dim, depth+1)
		n.Children = append(n.Children, child)
		remaining -= share
	}
	for remaining > 0 {
		// Stray modules attach directly to this node.
		newName := newModule(dim(), dim())
		n.Devices = append(n.Devices, newName)
		remaining--
	}
	return n
}

// fillLeaf populates a leaf node as one basic module set with an
// analog flavor: a symmetric pair, a mirror group, or a plain cluster.
func fillLeaf(n *constraint.Node, modules int, rng *rand.Rand, newModule func(int, int) string, dim func() int) {
	switch {
	case modules == 2 && rng.Intn(100) < 60:
		// Differential pair: matched dimensions, symmetry constraint.
		w, h := dim(), dim()
		a := newModule(w, h)
		b := newModule(w, h)
		n.Devices = []string{a, b}
		n.Kind = constraint.KindSymmetry
		n.Pairs = [][2]string{{a, b}}
	case modules >= 3 && rng.Intn(100) < 40:
		// Mirror row: matched dimensions, symmetric about the center
		// (outer devices pair up; an odd count leaves a central
		// self-symmetric device, like a diode-connected reference).
		w, h := dim(), dim()
		n.Kind = constraint.KindSymmetry
		for i := 0; i < modules; i++ {
			n.Devices = append(n.Devices, newModule(w, h))
		}
		for i, j := 0, modules-1; i < j; i, j = i+1, j-1 {
			n.Pairs = append(n.Pairs, [2]string{n.Devices[i], n.Devices[j]})
		}
		if modules%2 == 1 {
			n.Selfs = []string{n.Devices[modules/2]}
		}
	default:
		// Plain cluster with heterogeneous sizes.
		for i := 0; i < modules; i++ {
			n.Devices = append(n.Devices, newModule(dim(), dim()))
		}
		if modules >= 2 {
			n.Kind = constraint.KindProximity
		}
	}
}
