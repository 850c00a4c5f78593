package placer_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/geom"
	"repro/placer"
)

// quick is a short but observable schedule for tests.
var quick = placer.WithSchedule(placer.Schedule{MovesPerStage: 40, MaxStages: 20, StallStages: 20})

func miller(t *testing.T) *placer.Problem {
	t.Helper()
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolveDefaultAlgorithm: the zero option set runs seqpair.
func TestSolveDefaultAlgorithm(t *testing.T) {
	res, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != placer.DefaultAlgorithm {
		t.Fatalf("default ran %q, want %q", res.Algorithm, placer.DefaultAlgorithm)
	}
	if res.Stages == 0 || len(res.Placement) != 9 || !res.Legal {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Runtime <= 0 {
		t.Error("no runtime recorded")
	}
}

// TestSolveLastSelectionWins: WithAlgorithm and WithPortfolio
// override each other, last one wins.
func TestSolveLastSelectionWins(t *testing.T) {
	res, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(1),
		placer.WithPortfolio(), placer.WithAlgorithm(placer.BStar))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != placer.BStar {
		t.Fatalf("ran %q, want bstar (WithAlgorithm given last)", res.Algorithm)
	}
}

// TestSolveDoesNotMutateCaller: Solve normalizes a copy; the caller's
// problem keeps its spelling.
func TestSolveDoesNotMutateCaller(t *testing.T) {
	p := miller(t)
	p.Nets[0][0], p.Nets[0][1] = p.Nets[0][1], p.Nets[0][0] // de-normalize
	p.Objective.AreaWeight = 0
	before := *p.Clone()
	if _, err := placer.Solve(t.Context(), p, quick, placer.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if p.Nets[0][0] != before.Nets[0][0] || p.Objective.AreaWeight != 0 {
		t.Fatalf("Solve mutated the caller's problem: %+v", p.Nets[0])
	}
}

// TestSolveProgressStreams: WithProgress receives per-stage snapshots
// tagged with the algorithm, monotonically covering the whole run.
func TestSolveProgressStreams(t *testing.T) {
	var mu sync.Mutex
	var snaps []placer.Progress
	res, err := placer.Solve(t.Context(), miller(t), quick,
		placer.WithSeed(1), placer.WithAlgorithm(placer.SeqPair),
		placer.WithProgress(func(p placer.Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Stages {
		t.Fatalf("%d snapshots for %d stages", len(snaps), res.Stages)
	}
	last := snaps[len(snaps)-1]
	if last.Algorithm != placer.SeqPair || last.Stage != res.Stages || last.Moves != res.Moves {
		t.Fatalf("final snapshot %+v disagrees with result (stages %d moves %d)", last, res.Stages, res.Moves)
	}
	if last.Best != res.Cost {
		t.Fatalf("final best %v, result cost %v", last.Best, res.Cost)
	}
}

// TestSolveDeadline: an expired WithDeadline cancels at the first
// stage boundary and returns best-so-far flagged cancelled.
func TestSolveDeadline(t *testing.T) {
	res, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(1),
		placer.WithDeadline(time.Now().Add(-time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("expired deadline did not cancel")
	}
	if len(res.Placement) != 9 {
		t.Fatalf("cancelled run kept no best-so-far placement: %d modules", len(res.Placement))
	}
}

// TestSolveRejects: validation errors surface before any annealing.
func TestSolveRejects(t *testing.T) {
	if _, err := placer.Solve(t.Context(), &placer.Problem{}); err == nil {
		t.Error("empty problem accepted")
	}
	if _, err := placer.Solve(t.Context(), miller(t),
		placer.WithSchedule(placer.Schedule{InitialTemp: 1, MinTemp: 2})); err == nil {
		t.Error("inverted temperature schedule accepted")
	}
	if _, err := placer.Solve(t.Context(), miller(t),
		placer.WithSchedule(placer.Schedule{Cooling: 1.5})); err == nil {
		t.Error("cooling outside (0,1) accepted")
	}
}

// TestSolveZeroStageGuard: a MinTemp above the calibrated initial
// temperature must fail, not return the random initial placement as a
// solved result.
func TestSolveZeroStageGuard(t *testing.T) {
	_, err := placer.Solve(t.Context(), miller(t), placer.WithSeed(1),
		placer.WithSchedule(placer.Schedule{MinTemp: 1e30}))
	if err == nil || !strings.Contains(err.Error(), "zero annealing stages") {
		t.Fatalf("zero-stage schedule returned %v, want guard error", err)
	}
}

// TestPortfolioDropsZeroStageRacer: at a MinTemp between the racers'
// calibrated initial temperatures (bstar calibrates lowest on this
// problem and seed) only bstar runs zero stages. The race drops it and
// returns seqpair, the one racer that ran, with seqpair's own counters
// and none of the dropped one's.
func TestPortfolioDropsZeroStageRacer(t *testing.T) {
	sched := placer.WithSchedule(placer.Schedule{MovesPerStage: 40, MaxStages: 20, StallStages: 20, MinTemp: 14000})
	if _, err := placer.Solve(t.Context(), miller(t), sched, placer.WithSeed(1), placer.WithAlgorithm(placer.BStar)); err == nil {
		t.Fatal("bstar ran stages at this MinTemp; the test needs it to run none")
	}
	alone, err := placer.Solve(t.Context(), miller(t), sched, placer.WithSeed(1), placer.WithAlgorithm(placer.SeqPair))
	if err != nil {
		t.Fatalf("seqpair alone: %v", err)
	}
	win, err := placer.Solve(t.Context(), miller(t), sched, placer.WithSeed(1), placer.WithPortfolio())
	if err != nil {
		t.Fatal(err)
	}
	if win.Algorithm != placer.SeqPair || win.Stages == 0 {
		t.Fatalf("race returned %s with %d stages", win.Algorithm, win.Stages)
	}
	if win.Stages != alone.Stages || win.Moves != alone.Moves {
		t.Fatalf("race counters %d stages / %d moves, want seqpair's %d / %d", win.Stages, win.Moves, alone.Stages, alone.Moves)
	}
}

// TestSolveWorkersNeverLose: the multi-start reduction keeps worker
// 0's serial chain, so more workers never yield a worse cost on the
// same seed.
func TestSolveWorkersNeverLose(t *testing.T) {
	serial, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(5), placer.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost > serial.Cost {
		t.Fatalf("3-worker multi-start cost %v worse than serial %v", multi.Cost, serial.Cost)
	}
}

// TestSolveHierarchicalFromFlat: the hierarchical engine accepts a
// problem with no hierarchy (synthesizing one), and symmetry still
// holds by construction.
func TestSolveHierarchicalFromFlat(t *testing.T) {
	p := miller(t)
	p.Hierarchy = nil
	res, err := placer.Solve(t.Context(), p, quick, placer.WithSeed(1), placer.WithAlgorithm(placer.HBStar))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("hbstar on synthesized hierarchy violates constraints: %v", res.Violations)
	}
}

// TestSolveEveryAlgorithm: every registered engine places all of the
// Miller op amp's modules and keeps the guarantees its Info states:
// an overlap-free placement, and, where it claims symmetry, every
// symmetry group of the problem met. Symmetry
// is checked against the problem's own groups, not Result.Violations,
// whose contents differ by engine.
func TestSolveEveryAlgorithm(t *testing.T) {
	for _, info := range placer.Algorithms() {
		if strings.HasPrefix(info.Name, "x-test-") {
			continue // fakes this package's tests register
		}
		t.Run(info.Name, func(t *testing.T) {
			p := miller(t)
			res, err := placer.Solve(t.Context(), p, quick, placer.WithSeed(1), placer.WithAlgorithm(info.Name))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Placement) != 9 {
				t.Errorf("placed %d modules, want 9", len(res.Placement))
			}
			if !res.Legal || res.AreaUsage < 1 {
				t.Errorf("legal %v, area usage %.3f", res.Legal, res.AreaUsage)
			}
			if info.Symmetric {
				for _, err := range symmetryViolations(p, res) {
					t.Error(err)
				}
			}
		})
	}
}

// symmetryViolations checks res against every device-level symmetry
// group of p: the flat groups, or else those its hierarchy spells.
func symmetryViolations(p *placer.Problem, res *placer.Result) []error {
	id := map[string]int{}
	for i, m := range p.Modules {
		id[m.Name] = i
	}
	var groups []placer.SymGroup
	if groups = p.Symmetry; len(groups) == 0 && p.Hierarchy != nil {
		for pairs, selfs := range p.Hierarchy.SymmetryGroups(id) {
			groups = append(groups, placer.SymGroup{Pairs: pairs, Selfs: selfs})
		}
	}
	pl := geom.Placement{}
	for _, m := range res.Placement {
		pl[m.Name] = geom.NewRect(m.X, m.Y, m.W, m.H)
	}
	var errs []error
	for i, g := range groups {
		sg := constraint.SymmetryGroup{Name: fmt.Sprint(i), Vertical: true}
		for _, pr := range g.Pairs {
			sg.Pairs = append(sg.Pairs, [2]string{p.Modules[pr[0]].Name, p.Modules[pr[1]].Name})
		}
		for _, s := range g.Selfs {
			sg.Selfs = append(sg.Selfs, p.Modules[s].Name)
		}
		if err := sg.Check(pl); err != nil {
			errs = append(errs, err)
		}
	}
	if len(groups) == 0 {
		errs = append(errs, fmt.Errorf("problem %q has no symmetry group to check", p.Name))
	}
	return errs
}

// objectiveSchedule is the schedule of the objective tests.
var objectiveSchedule = placer.WithSchedule(placer.Schedule{MovesPerStage: 40, MaxStages: 60, StallStages: 15})

// TestSolveObjectiveOutline: a fixed outline reaches the engines
// through placer.Solve. A default objective carries no outline term, a
// generous outline fits at zero outline cost, and a 1×1 outline is
// reported violated with a positive outline cost.
func TestSolveObjectiveOutline(t *testing.T) {
	plain, err := placer.Solve(t.Context(), miller(t), objectiveSchedule, placer.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := termCost(plain, "outline"); ok {
		t.Fatal("default objective carries an outline term")
	}
	wide := [2]int{2 * plain.BBoxW, 2 * plain.BBoxH}
	tiny := [2]int{1, 1}
	for _, tc := range []struct {
		algorithm string
		outline   [2]int
	}{
		{placer.SeqPair, wide}, {placer.BStar, wide}, {placer.HBStar, wide},
		{placer.SeqPair, tiny}, {placer.BStar, tiny}, {placer.HBStar, tiny},
	} {
		p := miller(t)
		p.Objective.OutlineW, p.Objective.OutlineH = tc.outline[0], tc.outline[1]
		res, err := placer.Solve(t.Context(), p, objectiveSchedule, placer.WithSeed(2), placer.WithAlgorithm(tc.algorithm))
		if err != nil {
			t.Fatalf("%s: %v", tc.algorithm, err)
		}
		c, ok := termCost(res, "outline")
		if !ok {
			t.Errorf("%s %v: breakdown has no outline term", tc.algorithm, tc.outline)
			continue
		}
		exW, exH := max(0, res.BBoxW-tc.outline[0]), max(0, res.BBoxH-tc.outline[1])
		fits := exW == 0 && exH == 0
		if wantFit := tc.outline == wide; fits != wantFit || (c == 0) != fits {
			t.Errorf("%s: outline %dx%d, bounding box %dx%d, outline cost %v", tc.algorithm,
				tc.outline[0], tc.outline[1], res.BBoxW, res.BBoxH, c)
		}
	}
}

// TestSolveObjectiveThermal: the thermal and proximity weights reach
// the engines through placer.Solve, keep placements legal and add a
// thermal term to the breakdown.
func TestSolveObjectiveThermal(t *testing.T) {
	for _, algorithm := range []string{placer.SeqPair, placer.HBStar} {
		p := miller(t)
		p.Objective.ThermalWeight, p.Objective.ProxWeight = 2, 0.5
		res, err := placer.Solve(t.Context(), p, objectiveSchedule, placer.WithSeed(3), placer.WithAlgorithm(algorithm))
		if err != nil {
			t.Fatalf("%s: %v", algorithm, err)
		}
		if !res.Legal {
			t.Errorf("%s: illegal placement under thermal objective", algorithm)
		}
		if _, ok := termCost(res, "thermal"); !ok {
			t.Errorf("%s: breakdown has no thermal term", algorithm)
		}
	}
}

// termCost finds a named term's weighted cost in a result's breakdown.
func termCost(res *placer.Result, name string) (float64, bool) {
	for _, tc := range res.Breakdown {
		if tc.Name == name {
			return tc.Cost, true
		}
	}
	return 0, false
}
