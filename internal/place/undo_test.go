package place

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bstar"
	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/seqpair"
	"repro/internal/tcg"
)

// mutableFixture drives one placer solution through the exact-undo
// checks: pl must rebuild the full placement from the solution's
// current state (or return nil when the state is infeasible).
type mutableFixture struct {
	name string
	sol  *engine.Solution
	pl   func() geom.Placement
}

func placementsEqual(a, b geom.Placement) bool {
	if len(a) != len(b) {
		return false
	}
	for k, r := range a {
		if b[k] != r {
			return false
		}
	}
	return true
}

func costsEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return a == b
}

// fixture wraps a kernel solution with an error-swallowing placement
// extractor (nil for infeasible states).
func fixture(name string, sol *engine.Solution) mutableFixture {
	return mutableFixture{name, sol, func() geom.Placement {
		pl, err := sol.Placement()
		if err != nil {
			return nil
		}
		return pl
	}}
}

func fixtures(t *testing.T) []mutableFixture {
	t.Helper()
	bench := circuits.MillerOpAmp()
	prob, err := FromBench(bench)
	if err != nil {
		t.Fatal(err)
	}
	free, err := FromBench(bench)
	if err != nil {
		t.Fatal(err)
	}
	free.Groups = nil

	rng := rand.New(rand.NewSource(1))

	bt := newKernel(free, newBTRep(free, bstar.NewRandom(free.W, free.H, rng)))
	sps := newKernel(prob, newSPRep(prob, seqpair.RandomSF(prob.N(), prob.Groups, rng)))
	rej := newKernel(prob, newSPRejectRep(prob, seqpair.RandomSF(prob.N(), prob.Groups, rng)))
	tc := newKernel(free, newTCGRep(free, tcg.New(free.W, free.H)))

	n := free.N()
	expr := polish{0}
	for i := 1; i < n; i++ {
		expr = append(expr, i, opV)
	}
	sl := newKernel(free, newSlRep(free, expr))

	absR := newAbsRep(free, 10)
	for i := 0; i < n; i++ {
		absR.x[i], absR.y[i] = (i%3)*15, (i/3)*15
	}
	abs := engine.New(absR, absConfig(free, 10))

	return []mutableFixture{
		fixture("bstar", bt),
		fixture("seqpair", sps),
		fixture("seqpair-reject", rej),
		fixture("tcg", tc),
		fixture("slicing", sl),
		fixture("absolute", abs),
	}
}

// TestPerturbUndoRoundTrip asserts the MutableSolution contract for
// every placer: after Perturb followed by Undo, both the reported cost
// and the full placement geometry round-trip exactly.
func TestPerturbUndoRoundTrip(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			for step := 0; step < 300; step++ {
				costBefore := fx.sol.Cost()
				plBefore := fx.pl()
				undo := fx.sol.Perturb(rng)
				undo()
				if got := fx.sol.Cost(); !costsEqual(got, costBefore) {
					t.Fatalf("step %d: cost %v after undo, want %v", step, got, costBefore)
				}
				if !placementsEqual(fx.pl(), plBefore) {
					t.Fatalf("step %d: placement changed after undo", step)
				}
				// Drift to a fresh state so the walk covers the space.
				fx.sol.Perturb(rng)
			}
		})
	}
}

// TestSnapshotRestoreRoundTrip asserts that Restore brings a solution
// back to the snapshotted cost and geometry after arbitrary drift.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 20; trial++ {
				snap := fx.sol.Snapshot()
				costAt := fx.sol.Cost()
				plAt := fx.pl()
				for i := 0; i < 10; i++ {
					fx.sol.Perturb(rng)
				}
				fx.sol.Restore(snap)
				if got := fx.sol.Cost(); !costsEqual(got, costAt) {
					t.Fatalf("trial %d: cost %v after restore, want %v", trial, got, costAt)
				}
				if !placementsEqual(fx.pl(), plAt) {
					t.Fatalf("trial %d: placement changed after restore", trial)
				}
			}
		})
	}
}

// TestCostCoordsMatchesCost cross-checks the allocation-free cost
// evaluation against the named-placement path on random geometry.
func TestCostCoordsMatchesCost(t *testing.T) {
	bench := circuits.MillerOpAmp()
	prob, err := FromBench(bench)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	n := prob.N()
	x := make([]int, n)
	y := make([]int, n)
	rot := make([]bool, n)
	for trial := 0; trial < 200; trial++ {
		for i := 0; i < n; i++ {
			x[i], y[i] = rng.Intn(200), rng.Intn(200)
			rot[i] = rng.Intn(2) == 0
		}
		want, _ := prob.Cost(prob.BuildPlacement(x, y, rot))
		got := prob.CostCoords(x, y, prob.W, prob.H, rot)
		if got != want {
			t.Fatalf("trial %d: CostCoords=%v Cost=%v", trial, got, want)
		}
	}
}
