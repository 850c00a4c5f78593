package place

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/seqpair"
)

// flatSPProblem is an n-module instance without symmetry groups, so
// the sequence-pair adapter packs incrementally; random 2–4-pin nets
// give the cost model real work.
func flatSPProblem(n int, rng *rand.Rand) *Problem {
	p := &Problem{
		Names:      make([]string, n),
		W:          make([]int, n),
		H:          make([]int, n),
		WireWeight: 1,
	}
	for i := 0; i < n; i++ {
		p.Names[i] = "m" + strconv.Itoa(i)
		p.W[i] = 1 + rng.Intn(50)
		p.H[i] = 1 + rng.Intn(50)
	}
	for k := 0; k < n/2; k++ {
		net := make([]int, 2+rng.Intn(3))
		for i := range net {
			net[i] = rng.Intn(n)
		}
		p.Nets = append(p.Nets, net)
	}
	return p
}

// TestSPRepIncrementalPackMatchesFull drives the sequence-pair adapter
// through the engine kernel — random Perturb with accept or Undo,
// Snapshot/Restore and crossover children — and after every pack
// demands that the adapter's cached coordinates equal a fresh
// PackInto of its current sequence pair. n=300 walks with global
// swaps; n=2100 is above spLocalMoveMinN, so it walks with local
// moves. This holds the adapter's disturbance bookkeeping (points per
// move, re-disturbed on Undo, invalidated on Restore and crossover)
// to the packer's contract.
func TestSPRepIncrementalPackMatchesFull(t *testing.T) {
	for _, tc := range []struct{ n, steps int }{{300, 600}, {2100, 300}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			prob := flatSPProblem(tc.n, rng)
			newSol := func() *engine.Solution {
				return newKernel(prob, newSPRep(prob, seqpair.RandomSF(tc.n, nil, rng)))
			}
			var ws seqpair.PackWorkspace
			check := func(sol *engine.Solution, step int, op string) {
				t.Helper()
				r := sol.Rep().(*spRep)
				// Nothing is pending after a pack, so this returns the
				// cached coordinates the pack produced.
				ix, iy := r.sp.PackIncrementalInto(&r.ip, r.w, r.h)
				fx, fy := r.sp.PackInto(&ws, r.w, r.h)
				for m := range ix {
					if ix[m] != fx[m] || iy[m] != fy[m] {
						t.Fatalf("step %d (%s): module %d cached (%d,%d), fresh PackInto (%d,%d)",
							step, op, m, ix[m], iy[m], fx[m], fy[m])
					}
				}
			}
			sol, mate := newSol(), newSol()
			check(sol, -1, "init")
			snap := sol.Snapshot()
			for step := 0; step < tc.steps; step++ {
				switch r := rng.Intn(20); {
				case r < 16:
					undo := sol.Perturb(rng)
					check(sol, step, "perturb")
					if rng.Intn(3) == 0 {
						undo()
					}
				case r < 17:
					snap = sol.Snapshot()
				case r < 18:
					sol.Restore(snap)
					check(sol, step, "restore")
				case r < 19:
					mate.Perturb(rng)
					check(mate, step, "mate perturb")
				default:
					child := sol.Crossover(mate, rng).(*engine.Solution)
					check(child, step, "crossover")
					sol, mate = child, sol
				}
			}
		})
	}
}
