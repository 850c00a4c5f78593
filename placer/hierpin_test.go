package placer_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/placer"
)

// hierPins pin the exact final cost (math.Float64bits) and a sha256
// of the placement list of the hierarchical engines on three of the
// paper's circuits: hbstar on a short schedule (seed 1, 50 moves × 20
// stages) and the deterministic esf/rsf enumeration (seed 0). The
// figures were recorded before hbstar and shapefn moved onto bstar's
// contour, so they pin that the packer change moved no module.
var hierPins = []struct {
	bench, algorithm string
	seed             int64
	schedule         placer.Schedule
	bits             uint64
	sha              string
}{
	{"biasynth", placer.HBStar, 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x41074492f42f42f4,
		"af070b8793262ade2ba2ba282f8416badb48311c8159b0d2d3401f80e004c445"},
	{"buffer", placer.HBStar, 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x40f92e890b21642d,
		"35f7e969bdfd9ef9a88839aff1f25307fb3debae3d352ea25aeb8b0e9c3daabc"},
	{"lnamixbias", placer.HBStar, 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x4113c6b800000000,
		"ffc81a7411b02e530074cce0174b91132bc031de2ede747911ea2c6291ed6905"},
	{"biasynth", placer.ESF, 0, placer.Schedule{}, 0x40f32fc000000000,
		"51267852df9de1b8fd947e1bbad15fd5c938ea87603b5941ae123b699ad9bcc1"},
	{"biasynth", placer.RSF, 0, placer.Schedule{}, 0x40f3f4c000000000,
		"c2772fff3344815eabd1b6594c9c172f322c33a4c1e7b266781139f779079541"},
	{"lnamixbias", placer.ESF, 0, placer.Schedule{}, 0x4101f0b000000000,
		"e3df3e235f528515f78ed66878a85e2302cb14103128b919454e37e5f64f407e"},
}

// placementSHA hashes a result's placement list, one line per module
// in result order.
func placementSHA(pl []placer.Placed) string {
	h := sha256.New()
	for _, m := range pl {
		fmt.Fprintf(h, "%s %d %d %d %d\n", m.Name, m.X, m.Y, m.W, m.H)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPinHierCircuits solves each hierarchical pin through
// placer.Solve and compares the final cost bits and the placement
// hash.
func TestPinHierCircuits(t *testing.T) {
	for _, pin := range hierPins {
		t.Run(pin.bench+"/"+pin.algorithm, func(t *testing.T) {
			p, err := placer.Benchmark(pin.bench)
			if err != nil {
				t.Fatal(err)
			}
			opts := []placer.Option{placer.WithAlgorithm(pin.algorithm), placer.WithSeed(pin.seed)}
			if pin.schedule != (placer.Schedule{}) {
				opts = append(opts, placer.WithSchedule(pin.schedule))
			}
			res, err := placer.Solve(t.Context(), p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.Cost); got != pin.bits {
				t.Errorf("final cost %v (bits %#x), pinned bits %#x", res.Cost, got, pin.bits)
			}
			if got := placementSHA(res.Placement); got != pin.sha {
				t.Errorf("placement sha256 %s, pinned %s", got, pin.sha)
			}
		})
	}
}
