package shapefn

import (
	"context"
	"errors"
	"testing"

	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/internal/place"
)

func TestLeafShapes(t *testing.T) {
	f := Leaf("m", 10, 4, true, false)
	if len(f.Shapes) != 2 {
		t.Fatalf("rotatable leaf has %d shapes, want 2", len(f.Shapes))
	}
	f = Leaf("m", 10, 4, false, false)
	if len(f.Shapes) != 1 || f.Shapes[0].W != 10 || f.Shapes[0].H != 4 {
		t.Fatalf("leaf function wrong: %+v", f.Shapes)
	}
	// Square modules do not duplicate on rotation.
	f = Leaf("m", 6, 6, true, false)
	if len(f.Shapes) != 1 {
		t.Fatalf("square leaf has %d shapes, want 1", len(f.Shapes))
	}
}

func TestPruneDominance(t *testing.T) {
	f := prune([]Shape{
		{W: 10, H: 10},
		{W: 12, H: 8},
		{W: 12, H: 9},  // dominated by (12,8)
		{W: 15, H: 10}, // dominated by (10,10)
		{W: 20, H: 2},
	})
	if len(f.Shapes) != 3 {
		t.Fatalf("pruned to %d shapes, want 3: %+v", len(f.Shapes), f.Shapes)
	}
	// Heights strictly decrease with width.
	for i := 1; i < len(f.Shapes); i++ {
		if f.Shapes[i].W <= f.Shapes[i-1].W || f.Shapes[i].H >= f.Shapes[i-1].H {
			t.Fatalf("pruned function not staircase: %+v", f.Shapes)
		}
	}
}

func TestPruneCap(t *testing.T) {
	var shapes []Shape
	for i := 0; i < 200; i++ {
		shapes = append(shapes, Shape{W: i + 1, H: 400 - i})
	}
	f := prune(shapes)
	if len(f.Shapes) > maxShapes {
		t.Fatalf("function size %d exceeds cap %d", len(f.Shapes), maxShapes)
	}
	// Extremes survive thinning.
	if f.Shapes[0].W != 1 || f.Shapes[len(f.Shapes)-1].W != 200 {
		t.Fatal("thinning lost the extreme shapes")
	}
}

func TestAddRSF(t *testing.T) {
	f := Leaf("a", 10, 5, false, false)
	g := Leaf("b", 5, 10, false, false)
	sum := AddRSF(f, g)
	// Candidates: (15,10) horizontal and (10,15) vertical; neither
	// dominates the other.
	if len(sum.Shapes) != 2 {
		t.Fatalf("RSF sum has %d shapes, want 2: %+v", len(sum.Shapes), sum.Shapes)
	}
	// Reconstruction: modules adjacent, no overlap.
	for _, s := range sum.Shapes {
		pl := s.Placement()
		if !pl.Legal() || len(pl) != 2 {
			t.Fatalf("bad reconstruction %v", pl)
		}
		bb := pl.BBox()
		if bb.W != s.W || bb.H != s.H {
			t.Fatalf("reconstructed bbox %v != shape %dx%d", bb, s.W, s.H)
		}
	}
}

// Fig. 7: the enhanced addition interleaves an L-shaped operand with
// the second operand, making the sum narrower than the bounding-box
// addition by w_imp.
func TestEnhancedAdditionInterleaves(t *testing.T) {
	// Operand a: wide base A (8x2) with tall thin T (2x8) on its left
	// edge -> L-shape, outline 8 wide, 10 tall at [0,2).
	a := Function{Shapes: []Shape{{
		W: 8, H: 10,
		tree: &tnode{
			name: "A", w: 8, h: 2,
			right: &tnode{name: "T", w: 2, h: 8},
		},
	}}}
	// Operand b: C (6x7) fits into the notch above A.
	b := Leaf("C", 6, 7, false, true)
	sum, err := AddESF(t.Context(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := sum.MinArea()
	if !ok {
		t.Fatal("empty sum")
	}
	// Perfect interleaving packs everything in 8x10 = 80; the
	// bounding-box horizontal sum is 14x10 = 140.
	if best.W != 8 || best.H != 10 {
		t.Fatalf("best enhanced shape %dx%d, want 8x10 (w_imp = 6)", best.W, best.H)
	}
	pl := best.Placement()
	if !pl.Legal() || len(pl) != 3 {
		t.Fatalf("bad merged placement %v", pl)
	}
	// RSF on the same operands cannot do better than 112 (14x8 is not
	// available; candidates are 14x10 and 8x17).
	rsf, _ := AddRSF(a, b).MinArea()
	if int64(rsf.W)*int64(rsf.H) <= int64(best.W)*int64(best.H) {
		t.Fatalf("RSF area %d should exceed ESF area %d", rsf.W*rsf.H, best.W*best.H)
	}
}

// AddESF checks ctx before every shape pair: a cancelled sum returns
// the context's error, however few additions the caller makes.
func TestEnhancedAdditionCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	a := Leaf("A", 8, 2, true, true)
	if _, err := AddESF(ctx, a, Leaf("B", 6, 7, true, true), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled addition returned %v, want context.Canceled", err)
	}
}

// The checker must veto grafts that deform a symmetric operand, with
// the bounding-box fallback keeping the sum usable.
func TestEnhancedAdditionRespectsConstraints(t *testing.T) {
	g := constraint.SymmetryGroup{
		Name: "pair", Vertical: true,
		Pairs: [][2]string{{"L", "R"}},
	}
	check := func(pl geom.Placement) error {
		if _, ok := pl["L"]; !ok {
			return nil
		}
		return g.Check(pl)
	}
	// Symmetric pair L,R side by side (each 4x6).
	pair := Function{Shapes: []Shape{{
		W: 8, H: 6,
		tree: &tnode{
			name: "L", w: 4, h: 6,
			left: &tnode{name: "R", w: 4, h: 6},
		},
	}}}
	c := Leaf("C", 3, 3, false, true)
	sum, err := AddESF(t.Context(), pair, c, check)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Shapes) == 0 {
		t.Fatal("sum is empty")
	}
	for _, s := range sum.Shapes {
		pl := s.Placement()
		if err := g.Check(pl); err != nil {
			t.Fatalf("shape %dx%d violates pair symmetry: %v", s.W, s.H, err)
		}
		if !pl.Legal() {
			t.Fatalf("shape %dx%d overlaps", s.W, s.H)
		}
	}
}

// flatView is a benchmark's id-based problem view.
func flatView(t *testing.T, b *circuits.Bench) *place.Problem {
	t.Helper()
	p, err := place.FromBench(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnumerateSetRespectsSymmetry(t *testing.T) {
	b := circuits.MillerOpAmp()
	p := newPlacer(t.Context(), flatView(t, b), b.Tree, true)
	f, err := p.enumerateSet([]string{"P1", "P2"})
	if err != nil {
		t.Fatal(err)
	}
	g := constraint.SymmetryGroup{Name: "DP", Vertical: true, Pairs: [][2]string{{"P1", "P2"}}}
	for _, s := range f.Shapes {
		pl := s.Placement()
		if err := g.Check(pl); err != nil {
			t.Fatalf("enumerated pair shape violates symmetry: %v", err)
		}
	}
	if len(f.Shapes) == 0 {
		t.Fatal("no symmetric placements found for the pair")
	}
}

func TestDeterministicPlaceMiller(t *testing.T) {
	bench := circuits.MillerOpAmp()
	for _, enhanced := range []bool{false, true} {
		res, err := Place(t.Context(), flatView(t, bench), bench.Tree, enhanced)
		if err != nil {
			t.Fatalf("enhanced=%v: %v", enhanced, err)
		}
		if len(res.Placement) != len(bench.Circuit.Devices) {
			t.Fatalf("enhanced=%v: placement covers %d of %d devices",
				enhanced, len(res.Placement), len(bench.Circuit.Devices))
		}
		if !res.Placement.Legal() {
			t.Fatalf("enhanced=%v: overlaps %v", enhanced, res.Placement.Overlaps())
		}
		// Symmetry constraints hold on the final placement.
		dp := constraint.SymmetryGroup{Name: "DP", Vertical: true, Pairs: [][2]string{{"P1", "P2"}}}
		if err := dp.Check(res.Placement); err != nil {
			t.Fatalf("enhanced=%v: %v", enhanced, err)
		}
		cm := constraint.SymmetryGroup{Name: "CM1", Vertical: true, Pairs: [][2]string{{"N3", "N4"}}}
		if err := cm.Check(res.Placement); err != nil {
			t.Fatalf("enhanced=%v: %v", enhanced, err)
		}
	}
}

// Table I's headline: ESF area is never worse than RSF area, with the
// gap appearing as instances grow.
func TestESFNotWorseThanRSF(t *testing.T) {
	for _, name := range []string{"comparator_v2", "miller_v2"} {
		bench, err := circuits.TableIBench(name)
		if err != nil {
			t.Fatal(err)
		}
		areas := map[bool]int64{}
		for _, enhanced := range []bool{false, true} {
			res, err := Place(t.Context(), flatView(t, bench), bench.Tree, enhanced)
			if err != nil {
				t.Fatalf("%s enhanced=%v: %v", name, enhanced, err)
			}
			if !res.Placement.Legal() {
				t.Fatalf("%s enhanced=%v: overlaps", name, enhanced)
			}
			areas[enhanced] = res.Placement.Area()
		}
		if areas[true] > areas[false] {
			t.Errorf("%s: ESF area %d worse than RSF %d", name, areas[true], areas[false])
		}
	}
}

func TestShapeBBoxMatchesReconstruction(t *testing.T) {
	b := circuits.MillerOpAmp()
	res, err := Place(t.Context(), flatView(t, b), b.Tree, true)
	if err != nil {
		t.Fatal(err)
	}
	bb := res.Placement.BBox()
	if bb.W != res.Shape.W || bb.H != res.Shape.H {
		t.Fatalf("shape %dx%d but reconstruction %dx%d", res.Shape.W, res.Shape.H, bb.W, bb.H)
	}
}

func TestMinAreaEmpty(t *testing.T) {
	if _, ok := (Function{}).MinArea(); ok {
		t.Fatal("empty function must report no shape")
	}
}
