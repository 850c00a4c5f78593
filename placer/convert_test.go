package placer

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/circuits"
)

func testProblem() *Problem {
	return &Problem{
		Name: "toy",
		Modules: []Module{
			{Name: "A", W: 4, H: 2}, {Name: "B", W: 4, H: 2},
			{Name: "C", W: 3, H: 3}, {Name: "D", W: 5, H: 1},
		},
		Symmetry:  []SymGroup{{Pairs: [][2]int{{0, 1}}}},
		Nets:      [][]int{{0, 2}, {1, 3}},
		Proximity: [][]int{{2, 3}},
		Objective: Objective{AreaWeight: 1, WireWeight: 1},
	}
}

func TestFlatConversion(t *testing.T) {
	p := testProblem()
	pp, err := p.flat()
	if err != nil {
		t.Fatal(err)
	}
	if pp.N() != 4 || len(pp.Groups) != 1 || len(pp.Nets) != 2 {
		t.Fatalf("conversion lost structure: %+v", pp)
	}
	if pp.WireWeight != 1 || len(pp.ProxGroups) != 1 {
		t.Fatalf("objective or proximity lost: %+v", pp)
	}
	// And back: lifting the flat problem recovers the same canonical
	// value (modulo the hierarchy, which a flat problem cannot carry).
	q := fromPlace(p.Name, pp)
	n := p.Clone()
	n.Normalize()
	if len(q.Modules) != len(n.Modules) || len(q.Symmetry) != len(n.Symmetry) ||
		len(q.Nets) != len(n.Nets) || len(q.Proximity) != len(n.Proximity) {
		t.Fatalf("flat round-trip lost structure:\n got %+v\nwant %+v", q, n)
	}
}

func TestBenchmarkMiller(t *testing.T) {
	p, err := Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Modules) != 9 {
		t.Fatalf("miller has 9 modules, got %d", len(p.Modules))
	}
	if len(p.Symmetry) != 2 {
		t.Fatalf("miller has 2 device-level symmetry groups, got %d", len(p.Symmetry))
	}
	if p.Hierarchy == nil {
		t.Fatal("hierarchy lost")
	}
	if p.Objective.WireWeight != 1 {
		t.Fatalf("conventional objective lost: %+v", p.Objective)
	}
	// The hierarchy must survive the conversion well enough for the
	// hierarchical engine: same proximity groups, same leaves.
	tree := p.tree()
	if got, want := len(tree.ProximityGroups()), len(circuits.MillerOpAmp().Tree.ProximityGroups()); got != want {
		t.Fatalf("proximity groups: got %d want %d", got, want)
	}
	if got, want := len(tree.Leaves()), len(circuits.MillerOpAmp().Tree.Leaves()); got != want {
		t.Fatalf("tree leaves: got %d want %d", got, want)
	}
	if _, err := Benchmark("no-such-bench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestHierarchyOnlySymmetryBindsFlat: symmetry spelled only in the
// hierarchy must still constrain the flat engines.
func TestHierarchyOnlySymmetryBindsFlat(t *testing.T) {
	p := testProblem()
	p.Symmetry = nil
	p.Hierarchy = &Node{
		Name: "root",
		Children: []*Node{
			{Name: "dp", Kind: KindSymmetry, Devices: []string{"A", "B"},
				Pairs: [][2]string{{"A", "B"}}},
		},
		Devices: []string{"C", "D"},
	}
	pp, err := p.flat()
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Groups) != 1 || len(pp.Groups[0].Pairs) != 1 {
		t.Fatalf("hierarchy symmetry not derived: %+v", pp.Groups)
	}
	// Explicit flat groups win over derivation (no double counting).
	q := testProblem()
	q.Hierarchy = p.Hierarchy.Clone()
	qq, err := q.flat()
	if err != nil {
		t.Fatal(err)
	}
	if len(qq.Groups) != 1 {
		t.Fatalf("flat symmetry should not be doubled by the hierarchy: %+v", qq.Groups)
	}
}

// TestBenchSynthesizedHierarchy: a problem without a hierarchy gets a
// synthesized tree that covers every module.
func TestBenchSynthesizedHierarchy(t *testing.T) {
	p := testProblem() // no hierarchy
	tree := p.tree()
	if tree == nil {
		t.Fatal("no tree synthesized")
	}
	leaves := tree.Leaves()
	if len(leaves) != len(p.Modules) {
		t.Fatalf("synthesized tree covers %d of %d modules", len(leaves), len(p.Modules))
	}
}

// TestBenchLeavesHierarchyUntouched: tree attaches the modules a
// hierarchy leaves uncovered to the root of the tree it hands the
// engine, and that tree must be its own, not the problem's.
func TestBenchLeavesHierarchyUntouched(t *testing.T) {
	p := testProblem()
	p.Hierarchy = &Node{
		Name: "root",
		Children: []*Node{
			{Name: "dp", Kind: KindSymmetry, Devices: []string{"A", "B"},
				Pairs: [][2]string{{"A", "B"}}},
		},
	} // C and D uncovered
	before, err := json.Marshal(p.Hierarchy)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.tree().Leaves()); got != len(p.Modules) {
		t.Fatalf("tree covers %d of %d modules", got, len(p.Modules))
	}
	after, err := json.Marshal(p.Hierarchy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("tree changed the problem's hierarchy:\nbefore %s\n after %s", before, after)
	}
}
