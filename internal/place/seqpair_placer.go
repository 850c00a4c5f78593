package place

import (
	"fmt"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/seqpair"
)

// Result is the outcome of one placement run.
type Result struct {
	Placement geom.Placement
	Cost      float64
	Stats     anneal.Stats
	// Breakdown decomposes Cost per objective term, read from the
	// winning solution's own model, so the weighted values sum to Cost
	// exactly (bit for bit).
	Breakdown []cost.TermValue
}

// newKernel wraps a representation in the shared engine kernel over
// the problem's composite model.
func newKernel(p *Problem, rep engine.Representation) *engine.Solution {
	return engine.New(rep, engine.Config{
		NewModel: func(engine.Representation) *cost.Model { return p.NewModel() },
		FullEval: p.FullEval,
	})
}

// finishResult assembles a Result from the winning kernel solution:
// the named placement (normalized) and the per-term cost breakdown
// from the solution's own model.
func finishResult(sol *engine.Solution, stats anneal.Stats) (*Result, error) {
	pl, err := sol.Placement()
	if err != nil {
		return nil, err
	}
	pl.Normalize()
	return &Result{Placement: pl, Cost: sol.Cost(), Stats: stats, Breakdown: sol.Breakdown()}, nil
}

// Sequence-pair move kinds.
const (
	spMoveSequence = iota // S-F-preserving sequence move
	spMoveRotate          // pairwise rotation
)

// spLocalMoveMinN is the module count above which group-free sequence
// moves switch from global swaps to range-limited PerturbLocal windows.
// A move disturbs only the two alpha positions it swaps, but the
// incremental packer re-scans from each of them until the staircase
// re-converges, and the distance that takes grows with how far the
// swapped modules are apart: TimberWolf-style bounded windows keep it
// short, which is what makes 10⁴–10⁵-module walks affordable (at
// n=10⁴ a local-move pack costs about 70 % of a global-swap one). The
// threshold sits above every pinned golden instance, so the RNG draw
// sequence (and thus the goldens) is unchanged below it.
const spLocalMoveMinN = 2048

// spRep is the symmetric-feasible sequence-pair Representation.
// Rotations are applied pairwise so symmetric pairs stay
// dimension-matched; effective dimensions are maintained incrementally
// in w/h and packing reuses the SP's cached solver workspaces, so a
// proposed move allocates almost nothing. On problems without symmetry
// groups, packing is incremental: each move hands the alpha positions
// it disturbed to the IncPack, and Pack re-scans only from those
// points until the cached scan re-converges (bit-identical to the full
// FAST-SP scan by the incpack property tests).
type spRep struct {
	prob *Problem
	sp   *seqpair.SP
	rot  []bool
	w, h []int // effective dims, kept in sync with rot
	ip   seqpair.IncPack

	saved      seqpair.State
	spMoved    bool // last move touched the sequences (vs rotation only)
	rotA, rotB int  // modules whose rotation the last move flipped (-1 none)
	// marks are the alpha windows the in-flight move disturbed (a
	// single position p is {p, p}), re-disturbed on Undo.
	marks  [2][2]int
	nMarks int
}

func newSPRep(p *Problem, sp *seqpair.SP) *spRep {
	return &spRep{
		prob: p,
		sp:   sp,
		rot:  make([]bool, p.N()),
		w:    append([]int(nil), p.W...),
		h:    append([]int(nil), p.H...),
	}
}

// mark disturbs alpha positions [lo, hi] for the next incremental pack
// and remembers them so Undo can disturb them again.
func (r *spRep) mark(lo, hi int) {
	r.marks[r.nMarks] = [2]int{lo, hi}
	r.nMarks++
	r.ip.Disturb(lo, hi)
}

// flip toggles module m's rotation and its effective dimensions.
func (r *spRep) flip(m int) {
	r.rot[m] = !r.rot[m]
	r.w[m], r.h[m] = r.h[m], r.w[m]
}

// Perturb implements engine.Representation: an S-F-preserving sequence
// move four times out of five, a pairwise rotation otherwise.
func (r *spRep) Perturb(rng *rand.Rand) bool {
	if rng.Intn(5) == 0 {
		return r.move(spMoveRotate, rng)
	}
	return r.move(spMoveSequence, rng)
}

// move applies one move of the given kind, recording its undo.
func (r *spRep) move(kind int, rng *rand.Rand) bool {
	r.spMoved = false
	r.rotA, r.rotB = -1, -1
	r.nMarks = 0
	if kind == spMoveRotate {
		m := rng.Intn(r.prob.N())
		r.flip(m)
		r.rotA = m
		// Rotate the symmetric counterpart too, keeping pair dims
		// matched; self-symmetric modules need even height after
		// rotation, which we cannot guarantee, so skip them.
		for _, g := range r.prob.Groups {
			if sym, ok := g.Sym(m); ok {
				if sym == m {
					r.flip(m) // revert: self-symmetric
					r.rotA = -1
					break
				}
				r.flip(sym)
				r.rotB = sym
				break
			}
		}
		for _, rm := range []int{r.rotA, r.rotB} {
			if rm >= 0 {
				p := r.sp.PosAlpha(rm)
				r.mark(p, p)
			}
		}
		return true
	}
	r.sp.SaveState(&r.saved)
	r.spMoved = true
	n := r.prob.N()
	if len(r.prob.Groups) == 0 && n >= spLocalMoveMinN {
		i, j := r.sp.PerturbLocal(rng, max(32, n/64))
		r.mark(i, i)
		r.mark(j, j)
		return true
	}
	_, a, b := r.sp.PerturbSFTouched(rng, r.prob.Groups)
	if a >= 0 {
		pa, pb := r.sp.PosAlpha(a), r.sp.PosAlpha(b)
		r.mark(pa, pa)
		r.mark(pb, pb)
	} else if n > 0 {
		// Group move (paired swap / rotation / repair): the repair can
		// reorder members anywhere in beta, so the whole range is dirty.
		r.mark(0, n-1)
	}
	return true
}

// Undo implements engine.Representation.
func (r *spRep) Undo() {
	if r.spMoved {
		r.sp.LoadState(&r.saved)
	}
	if r.rotA >= 0 {
		r.flip(r.rotA)
	}
	if r.rotB >= 0 {
		r.flip(r.rotB)
	}
	// Reverting disturbs the move's positions again: a pack may have
	// consumed them between Perturb and Undo.
	for _, mk := range r.marks[:r.nMarks] {
		r.ip.Disturb(mk[0], mk[1])
	}
}

// Pack implements engine.Representation. With symmetry groups the
// symmetric constructor is used; codes it rejects (cross-group
// conflicts) are infeasible so the kernel prices the move at +Inf.
func (r *spRep) Pack(c *engine.Coords) bool {
	if len(r.prob.Groups) > 0 {
		x, y, err := r.sp.PackSymmetric(r.w, r.h, r.prob.Groups)
		if err != nil {
			return false
		}
		c.X, c.Y, c.W, c.H, c.Rot = x, y, r.w, r.h, nil
		return true
	}
	x, y := r.sp.PackIncrementalInto(&r.ip, r.w, r.h)
	c.X, c.Y, c.W, c.H, c.Rot = x, y, r.w, r.h, nil
	return true
}

// spSnapshot is the best-so-far record of an spRep.
type spSnapshot struct {
	state seqpair.State
	rot   []bool
	w, h  []int
}

// Snapshot implements engine.Representation.
func (r *spRep) Snapshot() any {
	sn := &spSnapshot{
		rot: append([]bool(nil), r.rot...),
		w:   append([]int(nil), r.w...),
		h:   append([]int(nil), r.h...),
	}
	r.sp.SaveState(&sn.state)
	return sn
}

// Restore implements engine.Representation. Restores happen at stage
// granularity (checkpoints, replica exchanges), so a full re-scan on
// the next pack is cheap relative to tracking the restored delta.
func (r *spRep) Restore(snapshot any) {
	sn := snapshot.(*spSnapshot)
	r.sp.LoadState(&sn.state)
	copy(r.rot, sn.rot)
	copy(r.w, sn.w)
	copy(r.h, sn.h)
	r.ip.Invalidate()
}

// Clone implements engine.Representation.
func (r *spRep) Clone() engine.Representation {
	n := newSPRep(r.prob, r.sp.Clone())
	copy(n.rot, r.rot)
	copy(n.w, r.w)
	copy(n.h, r.h)
	return n
}

// Placement implements engine.Representation.
func (r *spRep) Placement() (geom.Placement, error) {
	if len(r.prob.Groups) > 0 {
		return r.sp.SymmetricPlacement(r.prob.Names, r.w, r.h, r.prob.Groups)
	}
	return r.sp.Placement(r.prob.Names, r.w, r.h)
}

// CrossoverFrom implements engine.Crossover: order crossover on both
// sequences. The receiver is a clone of parent a (rotations inherit
// from it); children that break symmetric feasibility pack to +Inf
// and die in selection — the rejection strategy.
func (r *spRep) CrossoverFrom(a, b engine.Representation, rng *rand.Rand) {
	pb := asSPRep(b)
	if pb == nil {
		return
	}
	alpha := orderCross(r.sp.Alpha, pb.sp.Alpha, rng)
	beta := orderCross(r.sp.Beta, pb.sp.Beta, rng)
	if sp, err := seqpair.FromSequences(alpha, beta); err == nil {
		r.sp = sp
		r.ip.Invalidate()
	}
}

// asSPRep unwraps the sequence-pair state behind either sequence-pair
// representation (the S-F-preserving one or its rejection variant).
func asSPRep(rep engine.Representation) *spRep {
	switch v := rep.(type) {
	case *spRep:
		return v
	case *spRejectRep:
		return &v.spRep
	}
	return nil
}

// orderCross is classic order crossover (OX) over permutations: the
// child keeps p1's segment [i, j] in place and fills the remaining
// positions with the other elements in p2's order.
func orderCross(p1, p2 []int, rng *rand.Rand) []int {
	n := len(p1)
	child := make([]int, n)
	if n < 2 {
		copy(child, p1)
		return child
	}
	i, j := rng.Intn(n), rng.Intn(n)
	if i > j {
		i, j = j, i
	}
	inSeg := make(map[int]bool, j-i+1)
	for k := i; k <= j; k++ {
		child[k] = p1[k]
		inSeg[p1[k]] = true
	}
	pos := 0
	for _, m := range p2 {
		if inSeg[m] {
			continue
		}
		for pos >= i && pos <= j {
			pos++
		}
		child[pos] = m
		pos++
	}
	return child
}

// SeqPair runs the Section II placer: simulated annealing restricted
// to symmetric-feasible sequence-pairs, packed with the symmetric
// constructor. The returned placement always satisfies the problem's
// symmetry groups (validated against the geometric checker).
func SeqPair(p *Problem, opt anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	best, stats, err := engine.RunFeasible("place: seqpair", newSPSol(p), opt)
	if err != nil {
		return nil, err
	}
	res, err := finishResult(best, stats)
	if err != nil {
		return nil, err
	}
	if err := p.ConstraintSet().Check(res.Placement); err != nil {
		return nil, fmt.Errorf("place: internal error, result violates constraints: %v", err)
	}
	return res, nil
}

// newSPSol is the sequence-pair solution factory shared by the
// annealing and memetic engines: a random S-F code per attempt, with
// the kernel's feasible-init retries absorbing cross-group-infeasible
// draws.
func newSPSol(p *Problem) func(seed int64) *engine.Solution {
	return func(seed int64) *engine.Solution {
		rng := rand.New(rand.NewSource(seed + 7))
		// A random initial S-F code may still be cross-group
		// infeasible; engine.FeasibleInit retries the shared bound.
		s, _ := engine.FeasibleInit(func() *engine.Solution {
			return newKernel(p, newSPRep(p, seqpair.RandomSF(p.N(), p.Groups, rng)))
		})
		return s
	}
}

// SeqPairUnconstrainedMoves is the ablation variant of SeqPair: moves
// are arbitrary sequence-pair perturbations and non-S-F codes are
// rejected by cost (the "rejection" strategy), instead of the move set
// preserving property (1) by construction. Compare against SeqPair in
// the BenchmarkSFMovesVsRejection ablation.
func SeqPairUnconstrainedMoves(p *Problem, opt anneal.Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	newSol := func(seed int64) *engine.Solution {
		rng := rand.New(rand.NewSource(seed + 7))
		s, _ := engine.FeasibleInit(func() *engine.Solution {
			return newKernel(p, newSPRejectRep(p, seqpair.RandomSF(p.N(), p.Groups, rng)))
		})
		return s
	}
	best, stats := engine.Run(newSol, opt)
	return finishResult(best, stats)
}

// spRejectRep perturbs without repairing and relies on the S-F
// predicate to reject infeasible codes: its single move kind is an
// arbitrary sequence swap, and Pack reports non-S-F codes infeasible.
type spRejectRep struct {
	spRep
}

func newSPRejectRep(p *Problem, sp *seqpair.SP) *spRejectRep {
	r := &spRejectRep{}
	r.spRep = *newSPRep(p, sp)
	return r
}

// Perturb implements engine.Representation with the rejection move
// set: an arbitrary sequence swap.
func (r *spRejectRep) Perturb(rng *rand.Rand) bool {
	r.sp.SaveState(&r.saved)
	r.spMoved = true
	r.rotA, r.rotB = -1, -1
	r.nMarks = 0
	n := r.prob.N()
	if n >= 2 {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		if rng.Intn(2) == 0 {
			r.sp.SwapAlpha(i, j)
		} else {
			a, b := r.sp.Beta[i], r.sp.Beta[j]
			r.sp.SwapBeta(i, j)
			i, j = r.sp.PosAlpha(a), r.sp.PosAlpha(b)
		}
		r.mark(i, i)
		r.mark(j, j)
	}
	return true
}

// Pack implements engine.Representation: non-S-F codes are infeasible
// before any packing runs (the model never sees the move).
func (r *spRejectRep) Pack(c *engine.Coords) bool {
	if !r.sp.SymmetricFeasible(r.prob.Groups) {
		return false
	}
	return r.spRep.Pack(c)
}

// Clone implements engine.Representation.
func (r *spRejectRep) Clone() engine.Representation {
	n := &spRejectRep{}
	n.spRep = *(r.spRep.Clone().(*spRep))
	return n
}
