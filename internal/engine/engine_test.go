package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/cost"
	"repro/internal/geom"
)

// gridRep is a minimal direct-coordinate Representation for kernel
// tests: n unit modules on integer positions, one move translating a
// single module. Setting jam makes every move fail (exercising the
// changed=false path). Positions above the feasibility bound make Pack
// fail.
type gridRep struct {
	x, y  []int
	bound int  // x >= bound is infeasible (0 = unbounded)
	jam   bool // Perturb finds no move

	m, ox, oy int
	moved     []int
	reportM   bool // implement the MovedModules fast path
}

func newGridRep(n int) *gridRep {
	return &gridRep{x: make([]int, n), y: make([]int, n), m: -1, moved: make([]int, 0, 1)}
}

func (r *gridRep) Perturb(rng *rand.Rand) bool {
	r.m = -1
	r.moved = r.moved[:0]
	if r.jam {
		return false
	}
	m := rng.Intn(len(r.x))
	r.m, r.ox, r.oy = m, r.x[m], r.y[m]
	r.x[m] += rng.Intn(7) - 3
	r.y[m] += rng.Intn(7) - 3
	r.moved = append(r.moved, m)
	return true
}

func (r *gridRep) Undo() {
	if r.m >= 0 {
		r.x[r.m], r.y[r.m] = r.ox, r.oy
	}
}

func (r *gridRep) Pack(c *Coords) bool {
	if r.bound > 0 {
		for _, x := range r.x {
			if x >= r.bound {
				return false
			}
		}
	}
	w := make([]int, len(r.x))
	for i := range w {
		w[i] = 1
	}
	c.X, c.Y, c.W, c.H, c.Rot = r.x, r.y, w, w, nil
	return true
}

type gridSnap struct{ x, y []int }

func (r *gridRep) Snapshot() any {
	return &gridSnap{x: append([]int(nil), r.x...), y: append([]int(nil), r.y...)}
}

func (r *gridRep) Restore(snap any) {
	sn := snap.(*gridSnap)
	copy(r.x, sn.x)
	copy(r.y, sn.y)
}

func (r *gridRep) Clone() Representation {
	n := newGridRep(len(r.x))
	n.bound = r.bound
	n.reportM = r.reportM
	copy(n.x, r.x)
	copy(n.y, r.y)
	return n
}

func (r *gridRep) Placement() (geom.Placement, error) {
	pl := geom.Placement{}
	for i := range r.x {
		pl[string(rune('a'+i))] = geom.NewRect(r.x[i], r.y[i], 1, 1)
	}
	return pl, nil
}

// movedGridRep exposes the MovedModules fast path.
type movedGridRep struct{ gridRep }

func (r *movedGridRep) MovedModules() []int { return r.moved }

func (r *movedGridRep) Clone() Representation {
	return &movedGridRep{gridRep: *(r.gridRep.Clone().(*gridRep))}
}

// xGridRep adds uniform crossover.
type xGridRep struct{ gridRep }

func (r *xGridRep) CrossoverFrom(a, b Representation, rng *rand.Rand) {
	pb := b.(*xGridRep)
	for i := range r.x {
		if rng.Intn(2) == 0 {
			r.x[i], r.y[i] = pb.x[i], pb.y[i]
		}
	}
}

func (r *xGridRep) Clone() Representation {
	return &xGridRep{gridRep: *(r.gridRep.Clone().(*gridRep))}
}

func gridConfig() Config {
	return Config{NewModel: func(rep Representation) *cost.Model {
		var c Coords
		rep.Pack(&c)
		return cost.NewModel(len(c.X)).Add(1, cost.NewArea())
	}}
}

func newGridSolution(rep Representation, rng *rand.Rand) *Solution {
	gr := rep
	// Spread the modules so the initial cost is non-trivial.
	switch v := gr.(type) {
	case *gridRep:
		for i := range v.x {
			v.x[i], v.y[i] = rng.Intn(20), rng.Intn(20)
		}
	case *movedGridRep:
		for i := range v.x {
			v.x[i], v.y[i] = rng.Intn(20), rng.Intn(20)
		}
	case *xGridRep:
		for i := range v.x {
			v.x[i], v.y[i] = rng.Intn(20), rng.Intn(20)
		}
	}
	return New(gr, gridConfig())
}

// TestKernelContract drives Perturb/Undo/Snapshot/Restore on the plain
// and the MovedModules representations, asserting the incremental cost
// always matches the from-scratch reference exactly.
func TestKernelContract(t *testing.T) {
	reps := map[string]Representation{
		"diffed": newGridRep(8),
		"moved":  &movedGridRep{*newGridRep(8)},
	}
	for name, rep := range reps {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			s := newGridSolution(rep, rng)
			var snap any
			for step := 0; step < 400; step++ {
				before := s.Cost()
				switch rng.Intn(4) {
				case 0:
					s.Perturb(rng)
				case 1:
					undo := s.Perturb(rng)
					undo()
					if got := s.Cost(); got != before {
						t.Fatalf("step %d: cost %v after undo, want %v", step, got, before)
					}
				case 2:
					snap = s.Snapshot()
				default:
					if snap != nil {
						s.Restore(snap)
					}
				}
				if got, want := s.Cost(), s.RefCost(); got != want {
					t.Fatalf("step %d: incremental cost %v, reference %v", step, got, want)
				}
			}
		})
	}
}

// TestKernelInfeasibleMoves: moves into infeasible states cost +Inf
// without touching the model, and undo restores the previous finite
// cost exactly.
func TestKernelInfeasibleMoves(t *testing.T) {
	rep := newGridRep(4)
	rep.bound = 12
	rng := rand.New(rand.NewSource(3))
	for i := range rep.x {
		// Start near the bound so the ±3 moves cross it regularly.
		rep.x[i], rep.y[i] = 9+rng.Intn(3), rng.Intn(10)
	}
	s := New(rep, gridConfig())
	sawInf := false
	for step := 0; step < 500; step++ {
		before := s.Cost()
		undo := s.Perturb(rng)
		if math.IsInf(s.Cost(), 1) {
			sawInf = true
		}
		undo()
		if got := s.Cost(); got != before {
			t.Fatalf("step %d: cost %v after undo, want %v", step, got, before)
		}
	}
	if !sawInf {
		t.Fatal("walk never hit the infeasibility bound; the test is vacuous")
	}
}

// TestKernelFailedMoveKeepsState: a Perturb that finds no move
// (changed=false) must leave cost and state untouched, and its undo
// must not replay the previous move's model journal.
func TestKernelFailedMoveKeepsState(t *testing.T) {
	rep := newGridRep(4)
	rng := rand.New(rand.NewSource(4))
	s := newGridSolution(rep, rng)
	s.Perturb(rng) // a real move journals into the model
	before := s.Cost()
	rep.jam = true
	undo := s.Perturb(rng)
	if got := s.Cost(); got != before {
		t.Fatalf("failed move changed cost %v -> %v", before, got)
	}
	undo()
	if got := s.Cost(); got != before {
		t.Fatalf("undo after failed move changed cost %v -> %v", before, got)
	}
	if got, want := s.Cost(), s.RefCost(); got != want {
		t.Fatalf("incremental cost %v, reference %v", got, want)
	}
}

// TestKernelCrossover: crossover-capable representations recombine
// through the Crossoverer protocol; incapable ones return nil so the
// evolutionary engine falls back to mutation.
func TestKernelCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := newGridSolution(&xGridRep{*newGridRep(6)}, rng)
	b := newGridSolution(&xGridRep{*newGridRep(6)}, rng)
	child := a.Crossover(b, rng)
	if child == nil {
		t.Fatal("crossover-capable representation returned nil child")
	}
	cs := child.(*Solution)
	if got, want := cs.Cost(), cs.RefCost(); got != want {
		t.Fatalf("child cost %v, reference %v", got, want)
	}
	ar, br, cr := a.rep.(*xGridRep), b.rep.(*xGridRep), cs.rep.(*xGridRep)
	for i := range cr.x {
		fromA := cr.x[i] == ar.x[i] && cr.y[i] == ar.y[i]
		fromB := cr.x[i] == br.x[i] && cr.y[i] == br.y[i]
		if !fromA && !fromB {
			t.Fatalf("module %d inherited from neither parent", i)
		}
	}

	plain := newGridSolution(newGridRep(6), rng)
	if got := plain.Crossover(newGridSolution(newGridRep(6), rng), rng); got != nil {
		t.Fatal("crossover-incapable representation must return nil")
	}
}

// TestFeasibleInitRetries: the kernel retry loop keeps drawing until a
// finite-cost solution appears and errors out after InitRetries
// exhausted attempts.
func TestFeasibleInitRetries(t *testing.T) {
	calls := 0
	s, err := FeasibleInit(func() *Solution {
		calls++
		rep := newGridRep(2)
		if calls < 5 {
			rep.x[0], rep.bound = 100, 50 // infeasible draw
		}
		return New(rep, gridConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("FeasibleInit drew %d times, want 5", calls)
	}
	if math.IsInf(s.Cost(), 1) {
		t.Fatal("returned solution is infeasible")
	}

	calls = 0
	_, err = FeasibleInit(func() *Solution {
		calls++
		rep := newGridRep(2)
		rep.x[0], rep.bound = 100, 50
		return New(rep, gridConfig())
	})
	if err == nil {
		t.Fatal("exhausted retries must error")
	}
	if calls != InitRetries {
		t.Fatalf("FeasibleInit drew %d times, want %d", calls, InitRetries)
	}
}

// TestRunFeasibleSerialProbe: the serial path surfaces the shared
// error when the initial draw is infeasible, prefixed with the
// caller's name.
func TestRunFeasibleSerialProbe(t *testing.T) {
	newSol := func(seed int64) *Solution {
		rep := newGridRep(2)
		rep.x[0], rep.bound = 100, 50
		return New(rep, gridConfig())
	}
	_, _, err := RunFeasible("place: testrep", newSol, anneal.Options{MaxStages: 2, MovesPerStage: 2})
	if err == nil {
		t.Fatal("infeasible init must error")
	}
	want := "place: testrep: no feasible initial solution after 64 attempts"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
