package asf

import (
	"math/rand"
	"testing"

	"repro/internal/bstar"
	"repro/internal/constraint"
	"repro/internal/geom"
)

// pack packs the island with PackInto and names the result, with the
// axis at x = 0.
func pack(isl *Island) (geom.Placement, error) {
	pl, _, _, err := packProfile(isl)
	return pl, err
}

// packProfile is pack that also returns the island's width and its
// profile as Profile reads it, in PackInto's frame.
func packProfile(isl *Island) (geom.Placement, int, []bstar.Seg, error) {
	n := isl.Size()
	x, y, w, h := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	var ws bstar.PackWorkspace
	width, err := isl.PackInto(&ws, x, y, w, h)
	if err != nil {
		return nil, 0, nil, err
	}
	pl := geom.Placement{}
	for k, name := range isl.Names() {
		pl[name] = geom.NewRect(x[k]-width/2, y[k], w[k], h[k])
	}
	return pl, width, Profile(&ws, width, nil), nil
}

func testIsland(t *testing.T) *Island {
	t.Helper()
	isl, err := New(
		[]Pair{
			{Left: "a", Right: "a'", W: 10, H: 8},
			{Left: "b", Right: "b'", W: 6, H: 12},
		},
		[]Self{
			{Name: "s1", W: 8, H: 6},
			{Name: "s2", W: 4, H: 4},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return isl
}

func groupOf(isl *Island) constraint.SymmetryGroup {
	g := constraint.SymmetryGroup{Name: "g", Vertical: true}
	for _, p := range isl.pairs {
		g.Pairs = append(g.Pairs, [2]string{p.Left, p.Right})
	}
	for _, s := range isl.selfs {
		g.Selfs = append(g.Selfs, s.Name)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("empty group must fail")
	}
	if _, err := New(nil, []Self{{Name: "s", W: 7, H: 3}}); err == nil {
		t.Fatal("odd self width must fail")
	}
	if _, err := New([]Pair{{Left: "a", Right: "b", W: 0, H: 3}}, nil); err == nil {
		t.Fatal("zero pair width must fail")
	}
}

func TestPackIsSymmetricByConstruction(t *testing.T) {
	isl := testIsland(t)
	pl, err := pack(isl)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != isl.Size() {
		t.Fatalf("placement has %d modules, want %d", len(pl), isl.Size())
	}
	if !pl.Legal() {
		t.Fatalf("island placement overlaps: %v", pl.Overlaps())
	}
	if err := groupOf(isl).Check(pl); err != nil {
		t.Fatalf("island not symmetric: %v", err)
	}
	// The axis is at x=0: every self straddles it.
	for _, s := range isl.selfs {
		r := pl[s.Name]
		if r.X != -s.W/2 {
			t.Fatalf("self %q at x=%d, want %d", s.Name, r.X, -s.W/2)
		}
	}
}

// The defining ASF property: symmetry holds after every perturbation,
// with no feasibility checking by the caller.
func TestPerturbPreservesSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	isl := testIsland(t)
	g := groupOf(isl)
	for step := 0; step < 500; step++ {
		isl.Perturb(rng)
		pl, err := pack(isl)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !pl.Legal() {
			t.Fatalf("step %d: overlaps %v", step, pl.Overlaps())
		}
		if err := g.Check(pl); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestPairsOnlyIsland(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	isl, err := New([]Pair{
		{Left: "l1", Right: "r1", W: 5, H: 5},
		{Left: "l2", Right: "r2", W: 7, H: 3},
		{Left: "l3", Right: "r3", W: 3, H: 9},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := groupOf(isl)
	for step := 0; step < 300; step++ {
		isl.Perturb(rng)
		pl, err := pack(isl)
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Legal() || g.Check(pl) != nil {
			t.Fatalf("step %d: invalid island", step)
		}
	}
}

func TestSelfsOnlyIsland(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	isl, err := New(nil, []Self{
		{Name: "x", W: 10, H: 4},
		{Name: "y", W: 6, H: 8},
		{Name: "z", W: 2, H: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := groupOf(isl)
	pl, err := pack(isl)
	if err != nil {
		t.Fatal(err)
	}
	// Selfs stack on the axis.
	if err := g.Check(pl); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		isl.Perturb(rng)
		pl, err := pack(isl)
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Legal() || g.Check(pl) != nil {
			t.Fatalf("step %d: invalid selfs-only island", step)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	isl := testIsland(t)
	before, err := pack(isl)
	if err != nil {
		t.Fatal(err)
	}
	cl := isl.Clone()
	for i := 0; i < 50; i++ {
		cl.Perturb(rng)
	}
	after, err := pack(isl)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range before {
		if after[name] != r {
			t.Fatal("perturbing a clone mutated the original")
		}
	}
}

func TestNames(t *testing.T) {
	isl := testIsland(t)
	names := isl.Names()
	if len(names) != 6 {
		t.Fatalf("Names = %v, want 6 entries", names)
	}
}

// Exploring many islands, the annealer must be able to reach a
// compact square-ish arrangement; check the best area found over a
// random walk is close to the module-area lower bound.
func TestIslandReachesCompactPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	isl, err := New([]Pair{
		{Left: "l1", Right: "r1", W: 4, H: 8},
		{Left: "l2", Right: "r2", W: 4, H: 8},
	}, []Self{{Name: "s", W: 8, H: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var modArea int64
	pl, _ := pack(isl)
	modArea = pl.ModuleArea()
	best := int64(1 << 62)
	for step := 0; step < 2000; step++ {
		isl.Perturb(rng)
		p, err := pack(isl)
		if err != nil {
			t.Fatal(err)
		}
		if a := p.Area(); a < best {
			best = a
		}
	}
	if float64(best) > 1.5*float64(modArea) {
		t.Fatalf("best island area %d too far above module area %d", best, modArea)
	}
}

// TestProfileIsSkyline: across perturbations, the mirrored contour
// Profile returns is the island's skyline column for column, covers
// [0, width) without gaps, and has no two neighbours of equal height.
func TestProfileIsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	isl := testIsland(t)
	for step := 0; step < 500; step++ {
		isl.Perturb(rng)
		pl, width, prof, err := packProfile(isl)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, width)
		for _, r := range pl {
			for c := r.X + width/2; c < r.X2()+width/2; c++ {
				cols[c] = max(cols[c], r.Y2())
			}
		}
		at := 0
		for i, s := range prof {
			if s.X1 != at || s.X2 <= s.X1 || (i > 0 && prof[i-1].H == s.H) {
				t.Fatalf("step %d: profile malformed at %d: %v", step, i, prof)
			}
			for c := s.X1; c < s.X2; c++ {
				if cols[c] != s.H {
					t.Fatalf("step %d: profile height %d at x=%d, skyline %d", step, s.H, c, cols[c])
				}
			}
			at = s.X2
		}
		if at != width {
			t.Fatalf("step %d: profile covers [0,%d), width %d", step, at, width)
		}
	}
}
