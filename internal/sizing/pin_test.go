package sizing

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mos"
	"repro/internal/perf"
)

// fig10Pin is the exact outcome of one sizing run on cmd/fig10's
// options: the final statistics and every field of the sized design,
// floats as math.Float64bits.
type fig10Pin struct {
	bestCost, finalTemp               uint64
	stages, moves, accepted, improved int
	design                            []uint64
}

// designBits flattens a design into the bits of its width, length and
// fold count per device, followed by the tail current, supply and load.
func designBits(d perf.FoldedCascode) []uint64 {
	var out []uint64
	for _, dev := range []mos.Device{d.In, d.Tail, d.Src, d.CasP, d.CasN, d.Mir} {
		out = append(out, math.Float64bits(dev.W), math.Float64bits(dev.L), uint64(dev.Folds))
	}
	return append(out, math.Float64bits(d.ITail), math.Float64bits(d.VDD), math.Float64bits(d.CL))
}

// TestPinFig10Sizing runs both sizing modes on cmd/fig10's options
// (seed 1, 250 moves × 250 stages, stall 60) and compares the final
// statistics and the sized design bit for bit with values recorded
// before the sizing solution moved to the in-place annealing protocol.
func TestPinFig10Sizing(t *testing.T) {
	pins := map[Mode]fig10Pin{
		Nominal: {
			bestCost: 0x4023cce9e9299661, finalTemp: 0x3fb871562a617446,
			stages: 117, moves: 29250, accepted: 25996, improved: 1011,
			design: []uint64{
				0x407079fe2de71f7f, 0x3fe6666666666666, 6,
				0x40773eed240c1ee0, 0x3ff6666666666666, 4,
				0x405bab7db6d15dbf, 0x3ff6666666666666, 8,
				0x407c4ca62a4ef072, 0x3fe6666666666666, 6,
				0x4082c00000000000, 0x3fe6666666666666, 4,
				0x4081b2148bce9aa1, 0x3ff6666666666666, 4,
				0x3f1a370975bcb7c9, 0x400a666666666666, 0x3d819799812dea11,
			},
		},
		LayoutAware: {
			bestCost: 0x40292edebd85d175, finalTemp: 0x3fffe6a4f76c18d6,
			stages: 61, moves: 15250, accepted: 13695, improved: 5517,
			design: []uint64{
				0x4066ce682019005e, 0x3fe6666666666666, 7,
				0x4067d0137b452b50, 0x3ff6666666666666, 13,
				0x405f29ad4ec51500, 0x3ff6666666666666, 9,
				0x4062db66554f2886, 0x3fe6666666666666, 11,
				0x4045f761f75046a3, 0x3fe6666666666666, 7,
				0x40481303a3d03fe1, 0x3ff6666666666666, 8,
				0x3f1fe2c5d1abe774, 0x400a666666666666, 0x3d819799812dea11,
			},
		},
	}
	nominal, aware := runBoth(t, 1)
	for mode, res := range map[Mode]*Result{Nominal: nominal, LayoutAware: aware} {
		st := res.Stats
		got := fig10Pin{
			bestCost: math.Float64bits(st.BestCost), finalTemp: math.Float64bits(st.FinalTemp),
			stages: st.Stages, moves: st.Moves, accepted: st.Accepted, improved: st.Improved,
			design: designBits(res.Design),
		}
		if want := pins[mode]; !reflect.DeepEqual(got, want) {
			t.Errorf("mode %d:\n got %#v\nwant %#v", mode, got, want)
		}
	}
}
