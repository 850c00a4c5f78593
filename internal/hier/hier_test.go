package hier

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/netlist"
)

// miller builds the Fig. 6 Miller op amp netlist inline (the circuits
// package depends on constraint only; building it here keeps hier's
// tests self-contained).
func miller() *netlist.Circuit {
	c := netlist.NewCircuit("miller")
	add := func(name string, t netlist.DeviceType, d, g, s string) {
		c.MustAdd(&netlist.Device{
			Name:   name,
			Type:   t,
			Ports:  map[string]string{"D": d, "G": g, "S": s, "B": s},
			Params: map[string]float64{"w": 10, "l": 1},
			FW:     20, FH: 10,
		})
	}
	add("P1", netlist.PMOS, "n1", "inp", "tail")
	add("P2", netlist.PMOS, "n2", "inn", "tail")
	add("N3", netlist.NMOS, "n1", "n1", "gnd")
	add("N4", netlist.NMOS, "n2", "n1", "gnd")
	add("P5", netlist.PMOS, "ibias", "ibias", "vdd")
	add("P6", netlist.PMOS, "tail", "ibias", "vdd")
	add("P7", netlist.PMOS, "out", "ibias", "vdd")
	add("N8", netlist.NMOS, "out", "n2", "gnd")
	c.MustAdd(&netlist.Device{
		Name:  "C",
		Type:  netlist.Capacitor,
		Ports: map[string]string{"P": "n2", "N": "out"},
		FW:    30, FH: 30,
	})
	return c
}

func TestDetectMillerBlocks(t *testing.T) {
	blocks := Detect(miller(), "vdd", "gnd")
	var dp, cmN, cmP *Block
	for i := range blocks {
		b := &blocks[i]
		switch {
		case b.Kind == DiffPair:
			dp = b
		case b.Kind == CurrentMirror && contains(b.Devices, "N3"):
			cmN = b
		case b.Kind == CurrentMirror && contains(b.Devices, "P5"):
			cmP = b
		}
	}
	if dp == nil || !contains(dp.Devices, "P1") || !contains(dp.Devices, "P2") {
		t.Fatalf("differential pair P1/P2 not detected: %+v", blocks)
	}
	if cmN == nil || len(cmN.Devices) != 2 || !contains(cmN.Devices, "N4") {
		t.Fatalf("NMOS mirror N3/N4 not detected: %+v", blocks)
	}
	if cmP == nil || len(cmP.Devices) != 3 {
		t.Fatalf("PMOS mirror P5/P6/P7 not detected: %+v", blocks)
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func TestDetectDiffPairNeedsDistinctGates(t *testing.T) {
	c := netlist.NewCircuit("x")
	add := func(name, d, g, s string) {
		c.MustAdd(&netlist.Device{
			Name:  name,
			Type:  netlist.NMOS,
			Ports: map[string]string{"D": d, "G": g, "S": s, "B": "gnd"},
		})
	}
	// Common source, common gate: a cascode-ish pair, not a diff pair.
	add("A", "x1", "g", "s")
	add("B", "x2", "g", "s")
	for _, b := range Detect(c, "gnd") {
		if b.Kind == DiffPair {
			t.Fatalf("common-gate pair wrongly detected as diff pair: %+v", b)
		}
	}
}

func TestDetectMirrorNeedsDiode(t *testing.T) {
	c := netlist.NewCircuit("x")
	add := func(name, d, g, s string) {
		c.MustAdd(&netlist.Device{
			Name:  name,
			Type:  netlist.NMOS,
			Ports: map[string]string{"D": d, "G": g, "S": s, "B": s},
		})
	}
	// Shared gate and source but no diode connection.
	add("A", "x1", "bias", "gnd")
	add("B", "x2", "bias", "gnd")
	for _, b := range Detect(c, "vdd") {
		if b.Kind == CurrentMirror {
			t.Fatalf("diode-less pair wrongly detected as mirror: %+v", b)
		}
	}
}

func TestDetectIgnoresGlobalSourceNets(t *testing.T) {
	c := netlist.NewCircuit("x")
	add := func(name, d, g, s string) {
		c.MustAdd(&netlist.Device{
			Name:  name,
			Type:  netlist.NMOS,
			Ports: map[string]string{"D": d, "G": g, "S": s, "B": s},
		})
	}
	// Two devices sharing only the global gnd as source: not a pair.
	add("A", "x1", "g1", "gnd")
	add("B", "x2", "g2", "gnd")
	if blocks := Detect(c, "gnd"); len(blocks) != 0 {
		t.Fatalf("devices sharing only a global net grouped: %+v", blocks)
	}
}

func TestBuildTreeMiller(t *testing.T) {
	c := miller()
	tree, blocks := BuildTree(c, "vdd", "gnd")
	if err := tree.Validate(); err != nil {
		t.Fatalf("built tree invalid: %v", err)
	}
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3 (DP, CM1, CM2)", len(blocks))
	}
	// Every device appears exactly once in the tree.
	leaves := tree.Leaves()
	if len(leaves) != len(c.Devices) {
		t.Fatalf("tree has %d leaves, want %d", len(leaves), len(c.Devices))
	}
	// Diff pair node carries a symmetry constraint.
	var symNodes, mirrorSym int
	for _, ch := range tree.Children {
		if ch.Kind == constraint.KindSymmetry {
			symNodes++
			if len(ch.Pairs) > 0 && ch.Pairs[0][0] != "P1" {
				mirrorSym++
			}
		}
	}
	if symNodes < 2 {
		t.Fatalf("want >= 2 symmetry nodes (DP + matched mirror), got %d", symNodes)
	}
}

func TestBuildTreeRatioedMirrorIsProximity(t *testing.T) {
	c := netlist.NewCircuit("x")
	add := func(name, d, g, s string, fw int) {
		c.MustAdd(&netlist.Device{
			Name:  name,
			Type:  netlist.NMOS,
			Ports: map[string]string{"D": d, "G": g, "S": s, "B": s},
			FW:    fw, FH: 10,
		})
	}
	add("A", "bias", "bias", "gnd", 10) // diode
	add("B", "x", "bias", "gnd", 40)    // 4x ratio
	tree, _ := BuildTree(c, "vdd")
	found := false
	for _, ch := range tree.Children {
		if ch.Kind == constraint.KindProximity && contains(ch.Devices, "A") {
			found = true
		}
		if ch.Kind == constraint.KindSymmetry && contains(ch.Devices, "A") {
			t.Fatal("ratioed mirror must not become a symmetric pair")
		}
	}
	if !found {
		t.Fatal("ratioed mirror not grouped as proximity cluster")
	}
}

func TestBasicModuleSets(t *testing.T) {
	tree := &constraint.Node{
		Name:    "top",
		Devices: []string{"X"},
		Children: []*constraint.Node{
			{Name: "dp", Devices: []string{"A", "B"}},
			{Name: "inner", Children: []*constraint.Node{
				{Name: "cm", Devices: []string{"C", "D", "E"}},
			}},
		},
	}
	sets := BasicModuleSets(tree)
	if len(sets) != 3 {
		t.Fatalf("got %d sets, want 3: %v", len(sets), sets)
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	if total != 6 {
		t.Fatalf("sets cover %d modules, want 6", total)
	}
}

func TestBlockKindString(t *testing.T) {
	if DiffPair.String() != "diff-pair" || CurrentMirror.String() != "current-mirror" || Cluster.String() != "cluster" {
		t.Fatal("BlockKind strings wrong")
	}
}
