package hbstar

import (
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/place"
)

func dimsFrom(m map[string][2]int) func(string) (int, int, error) {
	return func(name string) (int, int, error) {
		d, ok := m[name]
		if !ok {
			return 0, 0, errUnknown(name)
		}
		return d[0], d[1], nil
	}
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown device " + string(e) }

// fig2Tree is a small stand-in for the paper's Fig. 2 hierarchy: a top
// design with a symmetric sub-circuit, a proximity sub-circuit and
// free devices.
func fig2Tree() (*constraint.Node, map[string][2]int) {
	tree := &constraint.Node{
		Name: "top",
		Children: []*constraint.Node{
			{
				Name:    "sym",
				Kind:    constraint.KindSymmetry,
				Devices: []string{"D", "E", "F"},
				Pairs:   [][2]string{{"D", "E"}},
				Selfs:   []string{"F"},
			},
			{
				Name:    "prox",
				Kind:    constraint.KindProximity,
				Devices: []string{"J", "K"},
			},
		},
		Devices: []string{"A", "B", "C"},
	}
	dims := map[string][2]int{
		"A": {12, 8}, "B": {6, 6}, "C": {10, 14},
		"D": {8, 10}, "E": {8, 10}, "F": {6, 4},
		"J": {9, 5}, "K": {5, 9},
	}
	return tree, dims
}

func TestBuildForest(t *testing.T) {
	tree, dims := fig2Tree()
	f, err := Build(tree, dimsFrom(dims))
	if err != nil {
		t.Fatal(err)
	}
	// Number of HB*-trees = sub-circuits + top = 3 (sym, prox, top).
	if f.TreeCount() != 3 {
		t.Fatalf("TreeCount = %d, want 3", f.TreeCount())
	}
}

func TestBuildErrors(t *testing.T) {
	tree, dims := fig2Tree()
	delete(dims, "K")
	if _, err := Build(tree, dimsFrom(dims)); err == nil {
		t.Fatal("unknown device must fail")
	}
	// Unequal pair dims.
	tree2, dims2 := fig2Tree()
	dims2["E"] = [2]int{9, 10}
	if _, err := Build(tree2, dimsFrom(dims2)); err == nil {
		t.Fatal("unequal pair dims must fail")
	}
	// Symmetry node with stray device.
	tree3, dims3 := fig2Tree()
	tree3.Children[0].Devices = append(tree3.Children[0].Devices, "X")
	dims3["X"] = [2]int{2, 2}
	if _, err := Build(tree3, dimsFrom(dims3)); err == nil {
		t.Fatal("stray device in symmetry node must fail")
	}
	// Pair member the symmetry node does not list.
	tree4, dims4 := fig2Tree()
	tree4.Children[0].Devices = []string{"D", "E"}
	if _, err := Build(tree4, dimsFrom(dims4)); err == nil {
		t.Fatal("unlisted self-symmetric device must fail")
	}
	// Device owned by two sub-circuits.
	tree5, dims5 := fig2Tree()
	tree5.Devices = append(tree5.Devices, "J")
	if _, err := Build(tree5, dimsFrom(dims5)); err == nil {
		t.Fatal("device placed twice must fail")
	}
	// Empty sub-circuit.
	empty := &constraint.Node{Name: "top", Children: []*constraint.Node{{Name: "void"}}}
	if _, err := Build(empty, dimsFrom(dims)); err == nil {
		t.Fatal("empty sub-circuit must fail")
	}
}

func TestPackLegalAndSymmetric(t *testing.T) {
	tree, dims := fig2Tree()
	f, err := Build(tree, dimsFrom(dims))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := f.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 8 {
		t.Fatalf("placement has %d modules, want 8", len(pl))
	}
	if !pl.Legal() {
		t.Fatalf("overlaps: %v", pl.Overlaps())
	}
	sym := constraint.SymmetryGroup{
		Name: "sym", Vertical: true,
		Pairs: [][2]string{{"D", "E"}},
		Selfs: []string{"F"},
	}
	if err := sym.Check(pl); err != nil {
		t.Fatalf("symmetry island broken: %v", err)
	}
}

// Symmetry must hold after arbitrary perturbation sequences — the
// point of linking ASF islands under hierarchy nodes.
func TestPerturbKeepsLegalityAndSymmetry(t *testing.T) {
	tree, dims := fig2Tree()
	f, err := Build(tree, dimsFrom(dims))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	sym := constraint.SymmetryGroup{
		Name: "sym", Vertical: true,
		Pairs: [][2]string{{"D", "E"}},
		Selfs: []string{"F"},
	}
	for step := 0; step < 400; step++ {
		f.Perturb(rng)
		pl, err := f.Pack()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !pl.Legal() {
			t.Fatalf("step %d: overlaps %v", step, pl.Overlaps())
		}
		if err := sym.Check(pl); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// The skyline (contour-node) mechanism must let a later module nest
// into the notch of a non-rectangular sub-placement, which the
// bounding-box abstraction cannot: this is the deterministic check.
// The sub-circuit packs wide (20x10) then tall (10x30) to its right —
// an L-shaped outline with a 20-wide notch above the wide module. The
// top tree places "nest" as the sub-circuit's right child (same x), so
// with contour nodes it rests at y=10 inside the notch; with bounding
// boxes it is pushed to y=30.
func TestContourNodesAllowNesting(t *testing.T) {
	tree := &constraint.Node{
		Name: "top",
		Children: []*constraint.Node{
			{Name: "sub", Devices: []string{"wide", "tall"}},
		},
		Devices: []string{"nest"},
	}
	dims := map[string][2]int{
		"wide": {20, 10},
		"tall": {10, 30},
		"nest": {20, 10},
	}
	build := func(bbox bool) *Forest {
		f, err := Build(tree, dimsFrom(dims))
		if err != nil {
			t.Fatal(err)
		}
		f.BBoxOutline = bbox
		// Top tree items: 0 = "nest" (device first), 1 = hierarchy
		// node for "sub". Structure: root = sub, right child = nest.
		top := f.root
		top.tree.Root = 1
		top.tree.Left[1], top.tree.Right[1], top.tree.Parent[1] = -1, 0, -1
		top.tree.Left[0], top.tree.Right[0], top.tree.Parent[0] = -1, -1, 1
		return f
	}
	withContour := build(false)
	pl, err := withContour.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Legal() {
		t.Fatalf("contour packing overlaps: %v", pl.Overlaps())
	}
	if got := pl["nest"]; got.Y != 10 || got.X != 0 {
		t.Fatalf("nest at %v, want (0,10) inside the contour notch", got)
	}
	withBBox := build(true)
	plb, err := withBBox.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if got := plb["nest"]; got.Y != 30 {
		t.Fatalf("bbox-outline nest at %v, want y=30 above the bounding box", got)
	}
	if pl.Area() >= plb.Area() {
		t.Fatalf("contour area %d must beat bbox area %d", pl.Area(), plb.Area())
	}
}

// Randomized comparison: across a perturbation walk, the best area
// with contour nodes is never worse than with bounding-box outlines.
func TestContourBeatsBBoxOnRandomWalks(t *testing.T) {
	tree, dims := fig2Tree()
	bestOf := func(bbox bool, seed int64) int64 {
		f, err := Build(tree, dimsFrom(dims))
		if err != nil {
			t.Fatal(err)
		}
		f.BBoxOutline = bbox
		rng := rand.New(rand.NewSource(seed))
		best := int64(1 << 62)
		for step := 0; step < 1500; step++ {
			f.Perturb(rng)
			pl, err := f.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if !pl.Legal() {
				t.Fatalf("step %d: overlaps", step)
			}
			if a := pl.Area(); a < best {
				best = a
			}
		}
		return best
	}
	contour := bestOf(false, 7)
	bbox := bestOf(true, 7)
	if contour > bbox {
		t.Fatalf("contour best %d worse than bbox best %d", contour, bbox)
	}
}

func TestCloneIndependence(t *testing.T) {
	tree, dims := fig2Tree()
	f, err := Build(tree, dimsFrom(dims))
	if err != nil {
		t.Fatal(err)
	}
	before, err := f.Pack()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cl := f.Clone()
	for i := 0; i < 100; i++ {
		cl.Perturb(rng)
	}
	after, err := f.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range before {
		if after[name] != r {
			t.Fatal("perturbing clone mutated original forest")
		}
	}
	if cl.TreeCount() != f.TreeCount() {
		t.Fatal("clone has different tree count")
	}
}

func TestPlaceMillerOpAmp(t *testing.T) {
	b := circuits.MillerOpAmp()
	p, err := place.FromBench(b)
	if err != nil {
		t.Fatal(err)
	}
	p.WireWeight = 0.5
	res, err := Place(p, b.Tree, anneal.Options{Seed: 5, MovesPerStage: 60, MaxStages: 80, StallStages: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatalf("overlaps: %v", res.Placement.Overlaps())
	}
	// Symmetry constraints are satisfied by construction.
	for _, v := range res.Violations {
		t.Logf("violation: %v", v)
	}
	// DP and CM1 symmetry must hold exactly.
	dp := constraint.SymmetryGroup{Name: "DP", Vertical: true, Pairs: [][2]string{{"P1", "P2"}}}
	if err := dp.Check(res.Placement); err != nil {
		t.Fatal(err)
	}
	cm := constraint.SymmetryGroup{Name: "CM1", Vertical: true, Pairs: [][2]string{{"N3", "N4"}}}
	if err := cm.Check(res.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceTableICircuit(t *testing.T) {
	b, err := circuits.TableIBench("comparator_v2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.FromBench(b)
	if err != nil {
		t.Fatal(err)
	}
	p.WireWeight = 0.2
	res, err := Place(p, b.Tree, anneal.Options{Seed: 9, MovesPerStage: 50, MaxStages: 60, StallStages: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatalf("overlaps: %v", res.Placement.Overlaps())
	}
	if len(res.Placement) != len(b.Circuit.Devices) {
		t.Fatal("missing modules in placement")
	}
	// Area sanity.
	if u := res.Placement.AreaUsage(); u > 3 {
		t.Fatalf("area usage %.2f unexpectedly bad", u)
	}
}

func TestProximityFragments(t *testing.T) {
	tree := &constraint.Node{
		Name:    "p",
		Kind:    constraint.KindProximity,
		Devices: []string{"a", "b", "c"},
	}
	o := &objective{id: map[string]int{"a": 0, "b": 1, "c": 2}}
	ft := newFragTerm(o.proximityGroups(tree))
	eval := func(pl geom.Placement) int {
		c := &cost.Coords{X: make([]int, 3), Y: make([]int, 3), W: make([]int, 3), H: make([]int, 3)}
		for name, i := range o.id {
			r := pl[name]
			c.X[i], c.Y[i], c.W[i], c.H[i] = r.X, r.Y, r.W, r.H
		}
		ft.Eval(c)
		return int(ft.Value())
	}
	connected := geom.Placement{
		"a": geom.NewRect(0, 0, 5, 5),
		"b": geom.NewRect(5, 0, 5, 5),
		"c": geom.NewRect(10, 0, 5, 5),
	}
	if got := eval(connected); got != 0 {
		t.Fatalf("connected fragments = %d, want 0", got)
	}
	split := geom.Placement{
		"a": geom.NewRect(0, 0, 5, 5),
		"b": geom.NewRect(100, 0, 5, 5),
		"c": geom.NewRect(200, 0, 5, 5),
	}
	if got := eval(split); got != 2 {
		t.Fatalf("split fragments = %d, want 2", got)
	}
}
