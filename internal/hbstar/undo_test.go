package hbstar

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/geom"
)

func buildTestForest(t *testing.T) *Forest {
	t.Helper()
	bench, err := circuits.TableIBench("folded_casc")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(bench.Tree, func(name string) (int, int, error) {
		d := bench.Circuit.Device(name)
		return d.FW, d.FH, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func samePlacement(a, b geom.Placement) bool {
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

// TestForestPerturbUndo asserts that PerturbUndoable + Undo restores
// the packed placement of the whole forest exactly, across a long
// random walk touching islands and plain trees alike.
func TestForestPerturbUndo(t *testing.T) {
	f := buildTestForest(t)
	rng := rand.New(rand.NewSource(31))
	var u ForestUndo
	for step := 0; step < 400; step++ {
		before, err := f.Pack()
		if err != nil {
			t.Fatalf("step %d: pack failed: %v", step, err)
		}
		f.PerturbUndoable(rng, &u)
		u.Undo()
		after, err := f.Pack()
		if err != nil {
			t.Fatalf("step %d: pack after undo failed: %v", step, err)
		}
		if !samePlacement(before, after) {
			t.Fatalf("step %d: undo did not restore the forest placement", step)
		}
		f.Perturb(rng) // drift
	}
}

// TestSolutionPerturbUndo drives the annealer adapter itself.
func TestSolutionPerturbUndo(t *testing.T) {
	bench, err := circuits.TableIBench("folded_casc")
	if err != nil {
		t.Fatal(err)
	}
	prob := &Problem{Bench: bench, WireWeight: 0.5, ProximityPenalty: 2}
	s := newSolution(prob, buildTestForest(t))
	rng := rand.New(rand.NewSource(77))
	for step := 0; step < 200; step++ {
		costBefore := s.Cost()
		undo := s.Perturb(rng)
		undo()
		if got := s.Cost(); got != costBefore {
			t.Fatalf("step %d: cost %v after undo, want %v", step, got, costBefore)
		}
		// Recompute from state through a fresh model: must agree with
		// the incrementally maintained cost bit for bit.
		if got := s.RefCost(); got != costBefore {
			t.Fatalf("step %d: re-evaluated cost %v, want %v", step, got, costBefore)
		}
		s.Perturb(rng) // drift
	}
}

// TestSolutionSnapshotRestoreRoundTrip asserts the full
// MutableSolution snapshot contract for the hierarchical placer —
// matching internal/place's flat-placer test: Restore brings the
// solution back to the snapshotted cost and the exact packed placement
// after arbitrary drift across the forest's plain trees and ASF
// symmetry islands.
func TestSolutionSnapshotRestoreRoundTrip(t *testing.T) {
	bench, err := circuits.TableIBench("folded_casc")
	if err != nil {
		t.Fatal(err)
	}
	prob := &Problem{Bench: bench, WireWeight: 0.5, ProximityPenalty: 2}
	s := newSolution(prob, buildTestForest(t))
	pack := func() geom.Placement {
		pl, err := s.Placement()
		if err != nil {
			return nil
		}
		return pl
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		snap := s.Snapshot()
		costAt := s.Cost()
		plAt := pack()
		for i := 0; i < 10; i++ {
			s.Perturb(rng)
		}
		s.Restore(snap)
		if got := s.Cost(); got != costAt {
			t.Fatalf("trial %d: cost %v after restore, want %v", trial, got, costAt)
		}
		if !samePlacement(pack(), plAt) {
			t.Fatalf("trial %d: placement changed after restore", trial)
		}
		// The snapshot must stay restorable after further drift (the
		// annealer re-restores its best-so-far at the end of a run).
		for i := 0; i < 5; i++ {
			s.Perturb(rng)
		}
		s.Restore(snap)
		if got := s.Cost(); got != costAt {
			t.Fatalf("trial %d: second restore cost %v, want %v", trial, got, costAt)
		}
	}
}

// TestPackAllocFree: once its buffers have grown, the annealer's pack
// of lnamixbias's forest allocates nothing — every node lays out on
// its own contour and the modules land straight in the coordinate
// slices.
func TestPackAllocFree(t *testing.T) {
	bench, err := circuits.TableIBench("lnamixbias")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(bench.Tree, func(name string) (int, int, error) {
		d := bench.Circuit.Device(name)
		return d.FW, d.FH, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newForestRep(&Problem{Bench: bench}, f)
	var c engine.Coords
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		r.Perturb(rng)
		if !r.Pack(&c) {
			t.Fatal("pack failed")
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Pack(&c) }); allocs != 0 {
		t.Fatalf("warmed pack allocates %v times", allocs)
	}
}
