package core

import (
	"math"
	"reflect"
	"testing"
)

// TestPinTableI pins the Table I usage and improvement figures of the
// three smaller circuits bit for bit, as recorded before the
// deterministic placer moved behind the placer registry: Table I runs
// on the authored benchmark trees, and the refactor must not change a
// digit of it.
func TestPinTableI(t *testing.T) {
	want := []struct {
		name                  string
		esf, rsf, improvement uint64
	}{
		{"comparator_v2", 0x3ff444ae05f04008, 0x3ff444ae05f04008, 0x0},
		{"miller_v2", 0x3ff2dff121eaa0c1, 0x3ff356e1cce49689, 0x3f9899c0f60189c0},
		{"folded_casc", 0x3ff3603603603603, 0x3ff4448a1a15fe77, 0x3fa687feb5380ba6},
	}
	names := make([]string, len(want))
	for i, w := range want {
		names[i] = w.name
	}
	rows, err := RunTableI(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		r := rows[i]
		got := [3]uint64{math.Float64bits(r.ESFUsage), math.Float64bits(r.RSFUsage), math.Float64bits(r.Improvement)}
		if got != [3]uint64{w.esf, w.rsf, w.improvement} {
			t.Errorf("%s: ESF/RSF usage, improvement bits %#x, pinned %#x %#x %#x", w.name, got, w.esf, w.rsf, w.improvement)
		}
	}
}

// TestPinFig8 pins the miller_v2 ESF and RSF root staircases, the
// data behind Fig. 8, as recorded before the same refactor.
func TestPinFig8(t *testing.T) {
	wantESF := ShapeCurve{{26, 334}, {28, 316}, {30, 306}, {32, 284}, {36, 276}, {38, 254}, {40, 228}, {48, 206}, {50, 164}, {52, 156}, {54, 146}, {60, 130}, {70, 120}, {76, 116}, {348, 46}, {392, 34}, {402, 30}, {478, 28}, {496, 26}}
	wantRSF := ShapeCurve{{26, 334}, {28, 316}, {30, 306}, {32, 288}, {36, 280}, {38, 256}, {44, 240}, {46, 236}, {50, 176}, {52, 158}, {54, 148}, {60, 140}, {64, 138}, {68, 130}, {70, 120}, {76, 116}, {348, 46}, {392, 34}, {512, 32}, {516, 30}, {526, 28}, {556, 26}}
	esf, rsf, err := RunFig8("miller_v2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(esf, wantESF) {
		t.Errorf("ESF staircase %v, pinned %v", esf, wantESF)
	}
	if !reflect.DeepEqual(rsf, wantRSF) {
		t.Errorf("RSF staircase %v, pinned %v", rsf, wantRSF)
	}
}
