package circuits

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/hier"
)

func TestMillerOpAmpStructure(t *testing.T) {
	b := MillerOpAmp()
	if err := b.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Circuit.Devices) != 9 {
		t.Fatalf("Miller op amp has %d devices, want 9 (8 MOS + C)", len(b.Circuit.Devices))
	}
	if err := b.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 6 hierarchy: CORE with DP, CM1, CM2; N8 and C at top.
	core := b.Tree.Child("CORE")
	if core == nil {
		t.Fatal("CORE node missing")
	}
	for _, want := range []string{"DP", "CM1", "CM2"} {
		if core.Child(want) == nil {
			t.Fatalf("%s missing under CORE", want)
		}
	}
	dp := core.Child("DP")
	if dp.Kind != constraint.KindSymmetry || len(dp.Pairs) != 1 {
		t.Fatal("DP must carry a symmetry pair")
	}
	if len(b.Tree.Leaves()) != 9 {
		t.Fatalf("tree covers %d devices, want 9", len(b.Tree.Leaves()))
	}
}

// The structural detector must rediscover the published hierarchy of
// Fig. 6 from connectivity alone.
func TestMillerHierarchyDetected(t *testing.T) {
	b := MillerOpAmp()
	blocks := hier.Detect(b.Circuit, "vdd", "gnd")
	foundDP, foundCM1, foundCM2 := false, false, false
	for _, blk := range blocks {
		switch {
		case blk.Kind == hier.DiffPair && has(blk.Devices, "P1") && has(blk.Devices, "P2"):
			foundDP = true
		case blk.Kind == hier.CurrentMirror && has(blk.Devices, "N3") && has(blk.Devices, "N4"):
			foundCM1 = true
		case blk.Kind == hier.CurrentMirror && has(blk.Devices, "P5") && len(blk.Devices) == 3:
			foundCM2 = true
		}
	}
	if !foundDP || !foundCM1 || !foundCM2 {
		t.Fatalf("Fig. 6 blocks not all detected: DP=%v CM1=%v CM2=%v (%+v)",
			foundDP, foundCM1, foundCM2, blocks)
	}
}

func has(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func TestFoldedCascodeStructure(t *testing.T) {
	b := FoldedCascode()
	if err := b.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Tree.Leaves()) != len(b.Circuit.Devices) {
		t.Fatal("tree does not cover all devices")
	}
	// Four matched symmetric pairs plus the mirror.
	symPairs := 0
	var count func(n *constraint.Node)
	count = func(n *constraint.Node) {
		symPairs += len(n.Pairs)
		for _, c := range n.Children {
			count(c)
		}
	}
	count(b.Tree)
	if symPairs != 5 {
		t.Fatalf("folded cascode has %d symmetric pairs, want 5", symPairs)
	}
}

func TestTableIBenchModuleCounts(t *testing.T) {
	want := map[string]int{
		"miller_v2":     13,
		"comparator_v2": 10,
		"folded_casc":   22,
		"buffer":        46,
		"biasynth":      65,
		"lnamixbias":    110,
	}
	for _, b := range TableIBenches() {
		if got := len(b.Circuit.Devices); got != want[b.Name] {
			t.Errorf("%s: %d modules, want %d", b.Name, got, want[b.Name])
		}
		if err := b.Tree.Validate(); err != nil {
			t.Errorf("%s: invalid tree: %v", b.Name, err)
		}
		if got := len(b.Tree.Leaves()); got != want[b.Name] {
			t.Errorf("%s: tree covers %d devices, want %d", b.Name, got, want[b.Name])
		}
	}
}

func TestTableIBenchDeterministic(t *testing.T) {
	a, err := TableIBench("buffer")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := TableIBench("buffer")
	an, aw, ah := a.Modules()
	bn, bw, bh := b.Modules()
	for i := range an {
		if an[i] != bn[i] || aw[i] != bw[i] || ah[i] != bh[i] {
			t.Fatal("synthetic benchmark generation is not deterministic")
		}
	}
}

func TestTableIBenchUnknown(t *testing.T) {
	if _, err := TableIBench("nope"); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestTableINames(t *testing.T) {
	names := TableINames()
	if len(names) != 6 || names[0] != "miller_v2" || names[5] != "lnamixbias" {
		t.Fatalf("TableINames = %v", names)
	}
}

// Synthetic benchmarks must have analog-like properties: heterogeneous
// sizes (max/min dimension ratio above 3) and small basic module sets.
func TestSyntheticProperties(t *testing.T) {
	for _, b := range TableIBenches() {
		_, w, h := b.Modules()
		minD, maxD := 1<<30, 0
		for i := range w {
			for _, d := range []int{w[i], h[i]} {
				if d <= 0 {
					t.Fatalf("%s: nonpositive dimension", b.Name)
				}
				if d < minD {
					minD = d
				}
				if d > maxD {
					maxD = d
				}
			}
		}
		if float64(maxD)/float64(minD) < 3 {
			t.Errorf("%s: size ratio %d/%d too homogeneous for an analog benchmark", b.Name, maxD, minD)
		}
		sets := hier.BasicModuleSets(b.Tree)
		for _, s := range sets {
			if len(s) > 6 {
				t.Errorf("%s: basic module set of size %d, want <= 6", b.Name, len(s))
			}
		}
		// Symmetric pairs must be dimension-matched.
		var check func(n *constraint.Node)
		check = func(n *constraint.Node) {
			for _, pr := range n.Pairs {
				da, db := b.Circuit.Device(pr[0]), b.Circuit.Device(pr[1])
				if da != nil && db != nil && (da.FW != db.FW || da.FH != db.FH) {
					t.Errorf("%s: pair (%s,%s) unmatched dims", b.Name, pr[0], pr[1])
				}
			}
			for _, c := range n.Children {
				check(c)
			}
		}
		check(b.Tree)
	}
}

func TestSyntheticNetsReferToDevices(t *testing.T) {
	b, _ := TableIBench("biasynth")
	if len(b.Nets) == 0 {
		t.Fatal("synthetic benchmark has no signal nets")
	}
	for net, devs := range b.Nets {
		if len(devs) < 2 {
			t.Errorf("net %s connects %d devices, want >= 2", net, len(devs))
		}
		for _, d := range devs {
			if b.Circuit.Device(d) == nil {
				t.Errorf("net %s references unknown device %s", net, d)
			}
		}
	}
}

// TestByName: every listed name builds a benchmark, the hand-built op
// amps by their constructors; an unknown name fails.
func TestByName(t *testing.T) {
	for _, name := range Names() {
		b, err := ByName(name)
		if err != nil || len(b.Circuit.Devices) == 0 {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if b, _ := ByName("miller"); b.Name != MillerOpAmp().Name {
		t.Errorf("miller built %q", b.Name)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
