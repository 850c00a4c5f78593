package placer_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/placer"
)

// hierPins pin the exact final cost (math.Float64bits) and a sha256
// of the placement list of the hierarchical engines: hbstar on a short
// schedule (seed 1, 50 moves × 20 stages) and the deterministic
// esf/rsf enumeration (seed 0). The benchmark rows were recorded
// before hbstar and shapefn moved onto bstar's contour, so they pin
// that the packer change moved no module. Those rows all use a
// benchmark's default objective; the bufferOutlineThermal and
// synthetic40 rows add what they leave uncovered: explicit per-module
// power, the fixed-outline and thermal terms, and a hierarchy
// synthesized from flat groups (plus wirelength over its nets).
var hierPins = []struct {
	name, algorithm string
	problem         func() (*placer.Problem, error)
	seed            int64
	schedule        placer.Schedule
	bits            uint64
	sha             string
}{
	{"biasynth", placer.HBStar, benchmark("biasynth"), 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x41074492f42f42f4,
		"af070b8793262ade2ba2ba282f8416badb48311c8159b0d2d3401f80e004c445"},
	{"buffer", placer.HBStar, benchmark("buffer"), 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x40f92e890b21642d,
		"35f7e969bdfd9ef9a88839aff1f25307fb3debae3d352ea25aeb8b0e9c3daabc"},
	{"lnamixbias", placer.HBStar, benchmark("lnamixbias"), 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x4113c6b800000000,
		"ffc81a7411b02e530074cce0174b91132bc031de2ede747911ea2c6291ed6905"},
	{"biasynth", placer.ESF, benchmark("biasynth"), 0, placer.Schedule{}, 0x40f32fc000000000,
		"51267852df9de1b8fd947e1bbad15fd5c938ea87603b5941ae123b699ad9bcc1"},
	{"biasynth", placer.RSF, benchmark("biasynth"), 0, placer.Schedule{}, 0x40f3f4c000000000,
		"c2772fff3344815eabd1b6594c9c172f322c33a4c1e7b266781139f779079541"},
	{"lnamixbias", placer.ESF, benchmark("lnamixbias"), 0, placer.Schedule{}, 0x4101f0b000000000,
		"e3df3e235f528515f78ed66878a85e2302cb14103128b919454e37e5f64f407e"},
	{"buffer-outline-thermal", placer.HBStar, bufferOutlineThermal, 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x4179fca24317d550,
		"82d7c7f43b9a03da1cd9e6fd2596928b9a905979142df2b3b2a92944cb898c65"},
	{"synthetic40", placer.HBStar, synthetic40, 1, placer.Schedule{MovesPerStage: 50, MaxStages: 20}, 0x40f3ed1000000000,
		"9429b3edc11f2d976d7f3484e8961b432d6be6e46f28e5fc1e43f74eb8dde9fa"},
	{"synthetic40", placer.ESF, synthetic40, 0, placer.Schedule{}, 0x40f3791000000000,
		"8ff28b827f9a8202c7a38aff7ed08581cf67b07fee9111577e53963cac7c676e"},
}

// benchmark returns a builder for one of the paper's circuits with its
// default objective.
func benchmark(name string) func() (*placer.Problem, error) {
	return func() (*placer.Problem, error) { return placer.Benchmark(name) }
}

// bufferOutlineThermal is buffer under a 150×150 outline, thermal
// weight 2 and explicit power i%5 + 0.5 per module id.
func bufferOutlineThermal() (*placer.Problem, error) {
	p, err := placer.Benchmark("buffer")
	if err != nil {
		return nil, err
	}
	p.Objective.OutlineW, p.Objective.OutlineH = 150, 150
	p.Objective.ThermalWeight = 2
	p.Power = make([]float64, p.N())
	for i := range p.Power {
		p.Power[i] = float64(i%5) + 0.5
	}
	return p, nil
}

// synthetic40 is a 40-module synthetic instance with symmetry pairs
// and no hierarchy, so the hierarchical engines synthesize the tree;
// its wirelength weight is 1 so the nets enter the cost.
func synthetic40() (*placer.Problem, error) {
	p, err := placer.Synthetic(placer.SyntheticSpec{N: 40, Seed: 7, SymmetryDensity: 0.3})
	if err != nil {
		return nil, err
	}
	p.Objective.WireWeight = 1
	return p, nil
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
		t.Run(pin.name+"/"+pin.algorithm, func(t *testing.T) {
			p, err := pin.problem()
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
