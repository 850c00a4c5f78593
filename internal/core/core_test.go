package core

import (
	"testing"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/place"
	"repro/internal/shapefn"
)

// TestPlaceDeterministic: ESF and RSF each place every device of a
// benchmark legally on its authored tree, and ESF's root shape
// function is never worse than RSF's minimum-area shape.
func TestPlaceDeterministic(t *testing.T) {
	for _, name := range []string{"miller", "comparator_v2"} {
		b, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := place.FromBench(b)
		if err != nil {
			t.Fatal(err)
		}
		usage := map[bool]float64{}
		for _, enhanced := range []bool{true, false} {
			res, err := shapefn.Place(t.Context(), p, b.Tree, enhanced)
			if err != nil {
				t.Fatalf("%s enhanced=%v: %v", name, enhanced, err)
			}
			if !res.Placement.Legal() {
				t.Errorf("%s enhanced=%v: illegal placement", name, enhanced)
			}
			if len(res.Placement) != len(b.Circuit.Devices) {
				t.Errorf("%s enhanced=%v: placement misses devices", name, enhanced)
			}
			usage[enhanced] = res.Placement.AreaUsage()
			if usage[enhanced] < 1 {
				t.Errorf("%s enhanced=%v: area usage %.3f below 1 is impossible", name, enhanced, usage[enhanced])
			}
		}
		if usage[true] > usage[false] {
			t.Errorf("%s: ESF usage %.4f worse than RSF %.4f", name, usage[true], usage[false])
		}
	}
}

// Table I on the two smallest circuits: ESF never worse, both legal,
// improvement recorded.
func TestRunTableISmall(t *testing.T) {
	rows, err := RunTableI([]string{"comparator_v2", "miller_v2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.ESFUsage > r.RSFUsage {
			t.Errorf("%s: ESF usage %.4f worse than RSF %.4f", r.Name, r.ESFUsage, r.RSFUsage)
		}
		if r.Improvement < 0 {
			t.Errorf("%s: negative improvement", r.Name)
		}
		if r.ESFUsage < 1 || r.RSFUsage < 1 {
			t.Errorf("%s: impossible usage below 1", r.Name)
		}
	}
}

// Full Table I (all six circuits) only without -short.
func TestRunTableIFull(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full Table I in -short mode")
	}
	rows, err := RunTableI(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	wins := 0
	for _, r := range rows {
		if r.ESFUsage > r.RSFUsage {
			t.Errorf("%s: ESF worse than RSF", r.Name)
		}
		if r.Improvement > 0 {
			wins++
		}
	}
	if wins < 3 {
		t.Errorf("ESF improves only %d of 6 circuits; Table I's shape expects most", wins)
	}
}

func TestRunFig8(t *testing.T) {
	esf, rsf, err := RunFig8("miller_v2")
	if err != nil {
		t.Fatal(err)
	}
	if len(esf) == 0 || len(rsf) == 0 {
		t.Fatal("empty shape curves")
	}
	// Staircase property: widths increase, heights decrease.
	for _, curve := range []ShapeCurve{esf, rsf} {
		for i := 1; i < len(curve); i++ {
			if curve[i][0] <= curve[i-1][0] || curve[i][1] >= curve[i-1][1] {
				t.Fatalf("curve not a staircase at %d: %v", i, curve)
			}
		}
	}
}

func TestRunLemmaPaperExample(t *testing.T) {
	n, groups := PaperLemmaExample()
	rep, err := RunLemma(n, groups, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Int64() != 25401600 {
		t.Fatalf("Total = %v, want 25401600", rep.Total)
	}
	if rep.Bound.Int64() != 35280 {
		t.Fatalf("Bound = %v, want 35280", rep.Bound)
	}
	if rep.Exact != 35280 {
		t.Fatalf("Exact = %d, want 35280 (bound is tight)", rep.Exact)
	}
	if rep.Reduction < 0.9985 || rep.Reduction > 0.9987 {
		t.Fatalf("Reduction = %v, want ≈ 99.86%%", rep.Reduction)
	}
}

func TestRunLemmaValidates(t *testing.T) {
	if _, err := RunLemma(2, nil, false); err != nil {
		t.Fatal(err)
	}
	n, groups := PaperLemmaExample()
	if _, err := RunLemma(3, groups, false); err == nil {
		t.Fatal("out-of-range group for n=3 must fail")
	}
	_ = n
}

func TestRunFig10(t *testing.T) {
	res, err := RunFig10(anneal.Options{Seed: 1, MovesPerStage: 250, MaxStages: 250, StallStages: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nominal.ViolationsPost) == 0 {
		t.Fatal("nominal sizing must fail post-layout")
	}
	if len(res.Aware.ViolationsPost) != 0 {
		t.Fatalf("aware sizing must pass post-layout: %v", res.Aware.ViolationsPost)
	}
	if res.Aware.Layout.Area() >= res.Nominal.Layout.Area() {
		t.Fatal("aware layout must be smaller")
	}
}
