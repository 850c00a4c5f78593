package constraint

import (
	"fmt"
	"testing"

	"repro/internal/geom"
)

func TestSymmetryGroupMembersAndSym(t *testing.T) {
	g := NewVerticalSymmetry("g", [][2]string{{"C", "D"}, {"B", "G"}}, "A", "F")
	if g.Size() != 6 {
		t.Fatalf("Size = %d, want 6", g.Size())
	}
	if s, ok := g.Sym("C"); !ok || s != "D" {
		t.Fatalf("Sym(C) = %q,%v, want D,true", s, ok)
	}
	if s, ok := g.Sym("G"); !ok || s != "B" {
		t.Fatalf("Sym(G) = %q,%v, want B,true", s, ok)
	}
	if s, ok := g.Sym("A"); !ok || s != "A" {
		t.Fatalf("Sym(A) = %q,%v, want A,true", s, ok)
	}
	if _, ok := g.Sym("Z"); ok {
		t.Fatal("Sym(Z) should not be in group")
	}
	if !g.Contains("F") || g.Contains("E") {
		t.Fatal("Contains wrong")
	}
}

func TestSymmetryGroupValidate(t *testing.T) {
	good := NewVerticalSymmetry("g", [][2]string{{"A", "B"}})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid group rejected: %v", err)
	}
	dup := NewVerticalSymmetry("g", [][2]string{{"A", "B"}, {"B", "C"}})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate member must be rejected")
	}
	empty := SymmetryGroup{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty group must be rejected")
	}
}

// Fig. 3(b)-style check: a hand-built symmetric placement passes, a
// perturbed one fails.
func TestSymmetryGroupCheck(t *testing.T) {
	g := NewVerticalSymmetry("g", [][2]string{{"C", "D"}}, "E")
	// Axis at x = 10 (axis2 = 20).
	p := geom.Placement{
		"C": geom.NewRect(2, 0, 4, 6),  // centerX2 = 8
		"D": geom.NewRect(14, 0, 4, 6), // centerX2 = 32
		"E": geom.NewRect(8, 10, 4, 4), // centerX2 = 20
	}
	if err := g.Check(p); err != nil {
		t.Fatalf("symmetric placement rejected: %v", err)
	}
	p["D"] = p["D"].Translate(1, 0)
	if err := g.Check(p); err == nil {
		t.Fatal("shifted pair must fail")
	}
	p["D"] = geom.NewRect(14, 0, 4, 6)
	p["E"] = p["E"].Translate(1, 0)
	if err := g.Check(p); err == nil {
		t.Fatal("off-axis self-symmetric must fail")
	}
	delete(p, "E")
	if err := g.Check(p); err == nil {
		t.Fatal("missing member must fail")
	}
}

func TestHorizontalSymmetry(t *testing.T) {
	g := SymmetryGroup{Name: "h", Pairs: [][2]string{{"A", "B"}}, Vertical: false}
	p := geom.Placement{
		"A": geom.NewRect(0, 2, 4, 6),
		"B": geom.NewRect(0, 12, 4, 6),
	}
	if err := g.Check(p); err != nil {
		t.Fatalf("horizontally symmetric placement rejected: %v", err)
	}
	p["B"] = p["B"].Translate(1, 0)
	if err := g.Check(p); err == nil {
		t.Fatal("x-shifted pair must fail horizontal symmetry")
	}
}

func TestCommonCentroidCheck(t *testing.T) {
	// Fig. 3(a): A1 B2 B3 A4 / B1 A2 A3 B4 with equal unit sizes has a
	// common centroid.
	p := geom.Placement{
		"A1": geom.NewRect(0, 10, 10, 10),
		"B2": geom.NewRect(10, 10, 10, 10),
		"B3": geom.NewRect(20, 10, 10, 10),
		"A4": geom.NewRect(30, 10, 10, 10),
		"B1": geom.NewRect(0, 0, 10, 10),
		"A2": geom.NewRect(10, 0, 10, 10),
		"A3": geom.NewRect(20, 0, 10, 10),
		"B4": geom.NewRect(30, 0, 10, 10),
	}
	g := CommonCentroid{
		Name: "cm",
		Units: map[string][]string{
			"A": {"A1", "A2", "A3", "A4"},
			"B": {"B1", "B2", "B3", "B4"},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.Check(p); err != nil {
		t.Fatalf("common-centroid pattern rejected: %v", err)
	}
	// Swapping one A unit off-pattern breaks the centroid.
	p["A4"] = geom.NewRect(40, 10, 10, 10)
	if err := g.Check(p); err == nil {
		t.Fatal("broken pattern must fail")
	}
}

func TestCommonCentroidValidate(t *testing.T) {
	if err := (CommonCentroid{Name: "x", Units: map[string][]string{"A": {"A1"}}}).Validate(); err == nil {
		t.Fatal("single owner must be rejected")
	}
	if err := (CommonCentroid{Name: "x", Units: map[string][]string{"A": {}, "B": {"B1"}}}).Validate(); err == nil {
		t.Fatal("empty owner must be rejected")
	}
	if err := (CommonCentroid{Name: "x", Units: map[string][]string{"A": {"U"}, "B": {"U"}}}).Validate(); err == nil {
		t.Fatal("shared unit must be rejected")
	}
}

func TestProximityCheck(t *testing.T) {
	g := Proximity{Name: "p", Members: []string{"E1", "E2", "E3"}}
	// L-shaped connected cluster (Fig. 3(c) is non-rectangular).
	p := geom.Placement{
		"E1": geom.NewRect(0, 0, 10, 10),
		"E2": geom.NewRect(10, 0, 10, 10), // touches E1's right edge
		"E3": geom.NewRect(0, 10, 10, 5),  // touches E1's top edge
	}
	if err := g.Check(p); err != nil {
		t.Fatalf("connected cluster rejected: %v", err)
	}
	p["E3"] = geom.NewRect(100, 100, 10, 5)
	if err := g.Check(p); err == nil {
		t.Fatal("disconnected member must fail")
	}
	// Corner-only contact is not connected.
	p["E3"] = geom.NewRect(20, 10, 10, 5) // touches E2 only at corner (20,10)
	if err := g.Check(p); err == nil {
		t.Fatal("corner contact must not count as connected")
	}
}

func TestTouching(t *testing.T) {
	a := geom.NewRect(0, 0, 10, 10)
	cases := []struct {
		b    geom.Rect
		want bool
	}{
		{geom.NewRect(10, 0, 5, 10), true},  // right edge full
		{geom.NewRect(10, 5, 5, 10), true},  // right edge partial
		{geom.NewRect(10, 10, 5, 5), false}, // corner only
		{geom.NewRect(0, 10, 10, 5), true},  // top edge
		{geom.NewRect(11, 0, 5, 10), false}, // gap
		{geom.NewRect(5, 5, 10, 10), true},  // overlap
		{geom.NewRect(-5, 10, 4, 5), false}, // top edge but no x overlap
	}
	for _, c := range cases {
		if got := Touching(a, c.b); got != c.want {
			t.Errorf("Touching(%v,%v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestSetValidateAndCheck(t *testing.T) {
	s := &Set{
		Symmetry: []SymmetryGroup{
			NewVerticalSymmetry("g1", [][2]string{{"A", "B"}}),
		},
		Proximity: []Proximity{{Name: "p1", Members: []string{"A", "B"}}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	p := geom.Placement{
		"A": geom.NewRect(0, 0, 4, 4),
		"B": geom.NewRect(4, 0, 4, 4),
	}
	if err := s.Check(p); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	p["B"] = geom.NewRect(4, 1, 4, 4)
	if errs := s.Violations(p); len(errs) != 1 {
		t.Fatalf("Violations = %v, want exactly 1 (symmetry)", errs)
	}
	// Overlapping symmetry groups are invalid.
	s.Symmetry = append(s.Symmetry, NewVerticalSymmetry("g2", [][2]string{{"B", "C"}}))
	if err := s.Validate(); err == nil {
		t.Fatal("overlapping symmetry groups must be rejected")
	}
}

func TestInterdigitationPattern(t *testing.T) {
	grid, err := InterdigitationPattern(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 4 {
		t.Fatalf("grid shape %dx%d, want 2x4", len(grid), len(grid[0]))
	}
	// Point symmetry: grid[r][c] == grid[R-1-r][C-1-c].
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			if grid[r][c] != grid[1-r][3-c] {
				t.Fatalf("grid not point-symmetric at (%d,%d)", r, c)
			}
		}
	}
	// Count labels.
	nA, nB := 0, 0
	for _, row := range grid {
		for _, l := range row {
			switch l {
			case 'A':
				nA++
			case 'B':
				nB++
			}
		}
	}
	if nA != 4 || nB != 4 {
		t.Fatalf("counts A=%d B=%d, want 4/4", nA, nB)
	}
}

func TestInterdigitationPatternErrors(t *testing.T) {
	if _, err := InterdigitationPattern(3, 4, 2); err == nil {
		t.Fatal("7 units in 2 rows must fail")
	}
	if _, err := InterdigitationPattern(2, 2, 0); err == nil {
		t.Fatal("zero rows must fail")
	}
	if _, err := InterdigitationPattern(4, 2, 2); err == nil {
		// 6 units, 2 rows x 3 cols = even cell count, both even: fine
		// actually 4+2=6, 2 rows of 3. Both counts even -> should work.
		t.Log("4,2,2 worked or failed; verifying explicitly below")
	}
	grid, err := InterdigitationPattern(4, 2, 2)
	if err != nil {
		t.Fatalf("4A+2B over 2x3: %v", err)
	}
	p, cc := PatternPlacement(grid, 10, 10)
	if err := cc.Check(p); err != nil {
		t.Fatalf("generated pattern violates common centroid: %v", err)
	}
}

// Property: every successfully generated pattern satisfies the
// common-centroid constraint when realized with equal unit sizes.
func TestPatternAlwaysCommonCentroid(t *testing.T) {
	for nA := 1; nA <= 6; nA++ {
		for nB := 1; nB <= 6; nB++ {
			for rows := 1; rows <= 3; rows++ {
				grid, err := InterdigitationPattern(nA, nB, rows)
				if err != nil {
					continue
				}
				p, cc := PatternPlacement(grid, 7, 5)
				if err := cc.Validate(); err != nil {
					t.Fatalf("nA=%d nB=%d rows=%d: invalid constraint: %v", nA, nB, rows, err)
				}
				if err := cc.Check(p); err != nil {
					t.Errorf("nA=%d nB=%d rows=%d: %v", nA, nB, rows, err)
				}
				if !p.Legal() {
					t.Errorf("nA=%d nB=%d rows=%d: overlapping units", nA, nB, rows)
				}
			}
		}
	}
}

func TestNodeLeavesAndCounts(t *testing.T) {
	tree := &Node{
		Name: "top",
		Children: []*Node{
			{Name: "s1", Devices: []string{"A", "B"}},
			{Name: "s2", Devices: []string{"C"}, Children: []*Node{
				{Name: "s3", Devices: []string{"D", "E"}},
			}},
		},
		Devices: []string{"X"},
	}
	leaves := tree.Leaves()
	if len(leaves) != 6 {
		t.Fatalf("Leaves = %v, want 6 entries", leaves)
	}
	if tree.Child("s2") == nil || tree.Child("zz") != nil {
		t.Fatal("Child lookup wrong")
	}
}

// TestSymmetryGroups: one group per symmetry node in pre-order, with
// members id does not list (here a pair naming two child nodes)
// skipped and a node left empty dropped.
func TestSymmetryGroups(t *testing.T) {
	tree := &Node{Name: "top", Children: []*Node{
		{Name: "outer", Kind: KindSymmetry, Devices: []string{"M"},
			Pairs: [][2]string{{"l", "r"}}, Selfs: []string{"M"},
			Children: []*Node{
				{Name: "l", Kind: KindSymmetry, Devices: []string{"A", "B"}, Pairs: [][2]string{{"A", "B"}}},
				{Name: "r", Kind: KindProximity, Devices: []string{"C"}},
			}},
		{Name: "hollow", Kind: KindSymmetry, Pairs: [][2]string{{"x", "y"}}},
		{Name: "tail", Kind: KindSymmetry, Devices: []string{"D", "E"}, Pairs: [][2]string{{"E", "D"}}},
	}}
	id := map[string]int{"A": 0, "B": 1, "C": 2, "D": 3, "E": 4, "M": 5}
	var got []string
	for pairs, selfs := range tree.SymmetryGroups(id) {
		got = append(got, fmt.Sprint(pairs, selfs))
	}
	want := []string{"[] [5]", "[[0 1]] []", "[[4 3]] []"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("groups %q, want %q", got, want)
	}
	for range tree.SymmetryGroups(id) {
		break // an early break must not panic the walker
	}
}

func TestNodeValidate(t *testing.T) {
	ok := &Node{
		Name: "top",
		Kind: KindSymmetry,
		Children: []*Node{
			{Name: "L", Devices: []string{"A"}},
			{Name: "R", Devices: []string{"B"}},
		},
		Pairs: [][2]string{{"L", "R"}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	dupDevice := &Node{
		Name: "top",
		Children: []*Node{
			{Name: "a", Devices: []string{"A"}},
			{Name: "b", Devices: []string{"A"}},
		},
	}
	if err := dupDevice.Validate(); err == nil {
		t.Fatal("device owned twice must be rejected")
	}
	badRef := &Node{Name: "n", Kind: KindSymmetry, Pairs: [][2]string{{"X", "Y"}}}
	if err := badRef.Validate(); err == nil {
		t.Fatal("unknown symmetry member must be rejected")
	}
	emptySym := &Node{Name: "n", Kind: KindSymmetry, Devices: []string{"A"}}
	if err := emptySym.Validate(); err == nil {
		t.Fatal("symmetry node without pairs must be rejected")
	}
	badCC := &Node{Name: "n", Kind: KindCommonCentroid, Devices: []string{"A"},
		Units: map[string][]string{"A": {"A"}}}
	if err := badCC.Validate(); err == nil {
		t.Fatal("single-owner common-centroid must be rejected")
	}
}

// Fig. 4-style hierarchical symmetry: sub-circuits D and E are a
// symmetric pair inside A; each contains two devices. D's devices
// mirror onto E's.
func TestHierarchicalSymmetryCheck(t *testing.T) {
	tree := &Node{
		Name: "A",
		Kind: KindSymmetry,
		Children: []*Node{
			{Name: "D", Devices: []string{"d1", "d2"}},
			{Name: "E", Devices: []string{"e1", "e2"}},
		},
		Pairs: [][2]string{{"D", "E"}},
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Axis at x=20 (axis2=40).
	p := geom.Placement{
		"d1": geom.NewRect(0, 0, 6, 10),
		"d2": geom.NewRect(6, 0, 8, 10),
		"e2": geom.NewRect(26, 0, 8, 10), // mirror of d2
		"e1": geom.NewRect(34, 0, 6, 10), // mirror of d1
	}
	if err := tree.Check(p); err != nil {
		t.Fatalf("hierarchically symmetric placement rejected: %v", err)
	}
	// Swap inner devices of E so the outline still mirrors but the
	// interior does not.
	p["e1"], p["e2"] = geom.NewRect(26, 0, 6, 10), geom.NewRect(32, 0, 8, 10)
	if err := tree.Check(p); err == nil {
		t.Fatal("interior mismatch must fail strict hierarchical symmetry")
	}
}

func TestHierarchicalProximityCheck(t *testing.T) {
	tree := &Node{
		Name:    "P",
		Kind:    KindProximity,
		Devices: []string{"x"},
		Children: []*Node{
			{Name: "inner", Devices: []string{"y", "z"}},
		},
	}
	p := geom.Placement{
		"x": geom.NewRect(0, 0, 10, 10),
		"y": geom.NewRect(10, 0, 10, 10),
		"z": geom.NewRect(10, 10, 10, 10),
	}
	if err := tree.Check(p); err != nil {
		t.Fatalf("connected hierarchy rejected: %v", err)
	}
	p["z"] = geom.NewRect(50, 50, 10, 10)
	if err := tree.Check(p); err == nil {
		t.Fatal("disconnected hierarchy must fail")
	}
}

func TestSelfSymmetricSubcircuit(t *testing.T) {
	tree := &Node{
		Name: "S",
		Kind: KindSymmetry,
		Children: []*Node{
			{Name: "M", Devices: []string{"m1", "m2"}},
		},
		Selfs: []string{"M"},
	}
	// M straddles axis x=10 (axis2=20) and is internally mirrored.
	p := geom.Placement{
		"m1": geom.NewRect(2, 0, 8, 5),
		"m2": geom.NewRect(10, 0, 8, 5),
	}
	if err := tree.Check(p); err != nil {
		t.Fatalf("self-symmetric sub-circuit rejected: %v", err)
	}
	// Unequal split: outline no longer centered.
	p["m2"] = geom.NewRect(10, 0, 9, 5)
	if err := tree.Check(p); err == nil {
		t.Fatal("asymmetric interior must fail")
	}
}

func TestCommonCentroidMembers(t *testing.T) {
	g := CommonCentroid{Name: "cc", Units: map[string][]string{
		"B": {"B1", "B2"},
		"A": {"A1"},
	}}
	m := g.Members()
	if len(m) != 3 || m[0] != "A1" || m[1] != "B1" {
		t.Fatalf("Members = %v, want owner-sorted [A1 B1 B2]", m)
	}
}

func TestAxis2Variants(t *testing.T) {
	// Horizontal-axis group derives the axis from center-Y sums.
	g := SymmetryGroup{Name: "h", Pairs: [][2]string{{"A", "B"}}, Vertical: false}
	p := geom.Placement{
		"A": geom.NewRect(0, 2, 4, 6),
		"B": geom.NewRect(0, 12, 4, 6),
	}
	axis2, ok := g.Axis2(p)
	if !ok || axis2 != 20 {
		t.Fatalf("horizontal Axis2 = %d,%v, want 20,true", axis2, ok)
	}
	// Selfs-only group (horizontal).
	gs := SymmetryGroup{Name: "s", Selfs: []string{"A"}, Vertical: false}
	axis2, ok = gs.Axis2(p)
	if !ok || axis2 != p["A"].CenterY2() {
		t.Fatalf("selfs-only Axis2 = %d,%v", axis2, ok)
	}
	// Missing member.
	if _, ok := g.Axis2(geom.Placement{"A": p["A"]}); ok {
		t.Fatal("Axis2 with missing member must report false")
	}
	// Empty group has no axis.
	if _, ok := (SymmetryGroup{Name: "e"}).Axis2(p); ok {
		t.Fatal("empty group must have no axis")
	}
}

func TestSetCheckAndViolationsAllKinds(t *testing.T) {
	s := &Set{
		Symmetry: []SymmetryGroup{NewVerticalSymmetry("g", [][2]string{{"A", "B"}})},
		CommonCentroid: []CommonCentroid{{
			Name:  "cc",
			Units: map[string][]string{"A": {"A"}, "B": {"B"}},
		}},
		Proximity: []Proximity{{Name: "p", Members: []string{"A", "B"}}},
	}
	// A/B symmetric about x=5 but with distinct centroids and a gap:
	// symmetry passes, common-centroid and proximity fail.
	p := geom.Placement{
		"A": geom.NewRect(0, 0, 2, 2),
		"B": geom.NewRect(8, 0, 2, 2),
	}
	if err := s.Check(p); err == nil {
		t.Fatal("Check must report the first violation")
	}
	errs := s.Violations(p)
	if len(errs) != 2 {
		t.Fatalf("Violations = %v, want centroid + proximity", errs)
	}
	// Bad constraint sets are rejected before checking.
	bad := &Set{CommonCentroid: []CommonCentroid{{Name: "x", Units: map[string][]string{"A": {"A"}}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("single-owner centroid set must fail Validate")
	}
	bad2 := &Set{Proximity: []Proximity{{Name: "x"}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("empty proximity set must fail Validate")
	}
	bad3 := &Set{Symmetry: []SymmetryGroup{{Name: "x"}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("empty symmetry group must fail Validate")
	}
}

func TestTreeCheckMissingMembers(t *testing.T) {
	tree := &Node{
		Name: "S",
		Kind: KindSymmetry,
		Children: []*Node{
			{Name: "L", Devices: []string{"a"}},
			{Name: "R", Devices: []string{"b"}},
		},
		Pairs: [][2]string{{"L", "R"}},
	}
	// Missing device of a sub-circuit member.
	p := geom.Placement{"a": geom.NewRect(0, 0, 2, 2)}
	if err := tree.Check(p); err == nil {
		t.Fatal("missing sub-circuit device must fail")
	}
	// Direct-device symmetry member missing entirely.
	tree2 := &Node{Name: "S", Kind: KindSymmetry,
		Devices: []string{"x", "y"}, Pairs: [][2]string{{"x", "y"}}}
	if err := tree2.Check(geom.Placement{}); err == nil {
		t.Fatal("missing devices must fail")
	}
	// Common-centroid node check path.
	cc := &Node{Name: "C", Kind: KindCommonCentroid,
		Devices: []string{"u1", "u2", "v1", "v2"},
		Units:   map[string][]string{"u": {"u1", "u2"}, "v": {"v1", "v2"}}}
	good := geom.Placement{
		"u1": geom.NewRect(0, 0, 2, 2), "v1": geom.NewRect(2, 0, 2, 2),
		"v2": geom.NewRect(0, 2, 2, 2), "u2": geom.NewRect(2, 2, 2, 2),
	}
	if err := cc.Check(good); err != nil {
		t.Fatalf("diagonal unit pattern must share centroid: %v", err)
	}
}

func TestSelfSymmetricSubcircuitAxisFromSelf(t *testing.T) {
	// Axis derived from a self member when no pairs exist.
	tree := &Node{
		Name: "S",
		Kind: KindSymmetry,
		Children: []*Node{
			{Name: "M", Devices: []string{"m1"}},
		},
		Selfs: []string{"M"},
	}
	p := geom.Placement{"m1": geom.NewRect(0, 0, 4, 4)}
	if err := tree.Check(p); err != nil {
		t.Fatalf("single centered module must satisfy self symmetry: %v", err)
	}
}
