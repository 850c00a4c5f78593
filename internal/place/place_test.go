package place

import (
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/seqpair"
)

// smallProblem is a 6-module instance with one symmetry group.
func smallProblem() *Problem {
	return &Problem{
		Names: []string{"a", "b", "c", "d", "e", "f"},
		W:     []int{10, 10, 20, 6, 8, 12},
		H:     []int{14, 14, 8, 6, 8, 10},
		Groups: []seqpair.Group{
			{Pairs: [][2]int{{0, 1}}, Selfs: []int{2}},
		},
		Nets:       [][]int{{0, 1, 2}, {3, 4}, {2, 5}},
		WireWeight: 0.5,
	}
}

// fastOpts keeps annealing cheap in tests.
func fastOpts(seed int64) anneal.Options {
	return anneal.Options{Seed: seed, MovesPerStage: 40, MaxStages: 60, StallStages: 15}
}

func TestProblemValidate(t *testing.T) {
	p := smallProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallProblem()
	bad.W[0] = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero width must fail")
	}
	bad2 := smallProblem()
	bad2.Nets = append(bad2.Nets, []int{99})
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range net must fail")
	}
	bad3 := smallProblem()
	bad3.W = bad3.W[:2]
	if err := bad3.Validate(); err == nil {
		t.Fatal("dims length mismatch must fail")
	}
}

func TestSeqPairPlacerSatisfiesConstraints(t *testing.T) {
	p := smallProblem()
	res, err := SeqPair(p, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatalf("overlapping placement: %v", res.Placement.Overlaps())
	}
	if err := p.ConstraintSet().Check(res.Placement); err != nil {
		t.Fatalf("constraints violated: %v", err)
	}
	if len(res.Placement) != p.N() {
		t.Fatal("placement missing modules")
	}
	// Area sanity: not worse than 4x the module area.
	if ratio := float64(res.Placement.Area()) / float64(p.ModuleArea()); ratio > 4 {
		t.Fatalf("area usage %.2f unexpectedly bad", ratio)
	}
}

func TestSeqPairPlacerNoGroups(t *testing.T) {
	p := smallProblem()
	p.Groups = nil
	res, err := SeqPair(p, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatal("overlapping placement")
	}
}

func TestSeqPairRejectionVariant(t *testing.T) {
	p := smallProblem()
	res, err := SeqPairUnconstrainedMoves(p, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatal("overlapping placement")
	}
}

func TestBStarPlacer(t *testing.T) {
	p := smallProblem()
	p.Groups = nil
	res, err := BStar(p, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatalf("overlapping placement: %v", res.Placement.Overlaps())
	}
	if ratio := float64(res.Placement.Area()) / float64(p.ModuleArea()); ratio > 3 {
		t.Fatalf("area usage %.2f unexpectedly bad", ratio)
	}
}

func TestAbsolutePlacer(t *testing.T) {
	p := smallProblem()
	p.Groups = nil
	res, err := Absolute(p, anneal.Options{Seed: 5, MovesPerStage: 150, MaxStages: 120, StallStages: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement) != p.N() {
		t.Fatal("placement missing modules")
	}
	// The absolute baseline is allowed residual overlap, but the
	// penalty should keep it moderate.
	if len(res.Placement.Overlaps()) > p.N() {
		t.Fatalf("excessive overlaps: %v", res.Placement.Overlaps())
	}
}

func TestSlicingPlacer(t *testing.T) {
	p := smallProblem()
	p.Groups = nil
	res, err := Slicing(p, fastOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatalf("slicing placement overlaps: %v", res.Placement.Overlaps())
	}
	if len(res.Placement) != p.N() {
		t.Fatal("placement missing modules")
	}
}

// The paper's density claim: on heterogeneous analog sizes, the
// non-slicing placers should not lose to the slicing baseline (and
// usually win). We assert non-inferiority with a tolerance to keep the
// test robust to stochastic noise.
func TestNonslicingNotWorseThanSlicing(t *testing.T) {
	bench, err := TableBench("miller_v2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromBench(bench)
	if err != nil {
		t.Fatal(err)
	}
	p.Groups = nil // compare raw packing quality
	p.WireWeight = 0
	opts := anneal.Options{Seed: 9, MovesPerStage: 80, MaxStages: 120, StallStages: 30}
	sl, err := Slicing(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BStar(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if float64(bt.Placement.Area()) > 1.15*float64(sl.Placement.Area()) {
		t.Fatalf("B*-tree area %d much worse than slicing %d", bt.Placement.Area(), sl.Placement.Area())
	}
}

// TableBench re-exports circuits.TableIBench for tests in this package.
func TableBench(name string) (*circuits.Bench, error) { return circuits.TableIBench(name) }

func TestFromBench(t *testing.T) {
	b := circuits.MillerOpAmp()
	p, err := FromBench(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 9 {
		t.Fatalf("problem has %d modules, want 9", p.N())
	}
	// DP and CM1 are symmetry nodes with device-level pairs.
	if len(p.Groups) != 2 {
		t.Fatalf("got %d symmetry groups, want 2 (DP, CM1)", len(p.Groups))
	}
	if len(p.Nets) == 0 {
		t.Fatal("no nets extracted")
	}
}

// TestFromBenchNetOrderDeterministic: the bench's nets are a map, and
// FromBench must list them in the same order on every call.
func TestFromBenchNetOrderDeterministic(t *testing.T) {
	b, err := circuits.ByName("buffer")
	if err != nil {
		t.Fatal(err)
	}
	first, err := FromBench(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p, err := FromBench(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Nets, first.Nets) {
			t.Fatalf("call %d listed the nets in another order:\n got %v\nwant %v", i+1, p.Nets, first.Nets)
		}
	}
}

func TestFromBenchPlacesEndToEnd(t *testing.T) {
	b := circuits.MillerOpAmp()
	p, err := FromBench(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SeqPair(p, fastOpts(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatal("overlapping op amp placement")
	}
	if err := p.ConstraintSet().Check(res.Placement); err != nil {
		t.Fatalf("op amp constraints violated: %v", err)
	}
}

func TestCostPenalizesMissingModules(t *testing.T) {
	p := smallProblem()
	pl := p.BuildPlacement(make([]int, p.N()), make([]int, p.N()), nil)
	delete(pl, "a")
	if c, _ := p.Cost(pl); c != c || c < 1e18 { // +Inf or NaN check
		if c < 1e18 {
			t.Fatal("missing module not penalized")
		}
	}
}

func TestValidPolish(t *testing.T) {
	// (0 1 V) 2 H is valid for n=3.
	if !validPolish(polish{0, 1, opV, 2, opH}, 3) {
		t.Fatal("valid expression rejected")
	}
	// Leading operator violates balloting.
	if validPolish(polish{opV, 0, 1, 2, opH}, 3) {
		t.Fatal("balloting violation accepted")
	}
	// Adjacent identical operators violate normalization.
	if validPolish(polish{0, 1, opV, 2, opV, 3, opV, opV}, 4) {
		t.Fatal("non-normalized expression accepted")
	}
	// Wrong operand count.
	if validPolish(polish{0, 1, opV}, 3) {
		t.Fatal("wrong operand count accepted")
	}
}

func TestTCGPlacer(t *testing.T) {
	p := smallProblem()
	p.Groups = nil
	res, err := TCG(p, fastOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Legal() {
		t.Fatalf("TCG placement overlaps: %v", res.Placement.Overlaps())
	}
	if len(res.Placement) != p.N() {
		t.Fatal("placement missing modules")
	}
	if ratio := float64(res.Placement.Area()) / float64(p.ModuleArea()); ratio > 3 {
		t.Fatalf("area usage %.2f unexpectedly bad", ratio)
	}
}
