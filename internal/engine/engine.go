// Package engine is the shared annealable kernel behind every placer
// in this repository. The DATE'09 paper's central idea is that analog
// placement is one optimization problem explored through
// interchangeable topological representations — sequence-pairs,
// B*-trees, slicing trees, HB*-tree forests; this package is that
// idea in code. A representation
// contributes only its topology encoding and move set through the
// Representation interface, and one Solution kernel supplies
// everything the representations used to duplicate: ownership of the
// composite cost.Model, the incremental dirty-set evaluation wiring
// (full Eval on cold or restored direct-coordinate state, diff-based
// Update for topological repacks, UpdateMoved when the representation
// knows its own dirty set), exact move-and-undo bookkeeping against
// the model's journal, snapshot/restore of the best-so-far state,
// feasible-initialization retries, and final placement/breakdown
// assembly.
//
// The kernel implements the annealers' in-place protocol
// (anneal.MutableSolution: Perturb/Undo/Snapshot/Restore) and the
// evolutionary engine's cloning one (anneal.Solution: Neighbor), plus
// anneal.MoveReporter and, for representations implementing
// Crossover, anneal.Crossoverer, so one adapter type drives the
// serial, multi-start, tempered, evolutionary and memetic engines
// alike. Run and RunFeasible dispatch between the annealers.
// Every cross-engine feature (genetic recombination, new
// representations) lands here once instead of once per placer.
package engine

import (
	"math"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/cost"
	"repro/internal/geom"
)

// Coords is the packed geometry a Representation hands the kernel:
// module i occupies (X[i], Y[i]) with dimensions W[i] × H[i], swapped
// where Rot is set (Rot may be nil when the representation already
// folds rotation into W/H). The slices may alias representation-owned
// workspaces; the kernel only reads them between Pack and the model
// evaluation it feeds them to.
type Coords struct {
	X, Y []int
	W, H []int
	Rot  []bool
}

// Representation is one topological encoding of a placement — the only
// thing a placer has to implement. The kernel drives the encoding
// through single random moves with exact undo, deep snapshots for the
// best-so-far state, and packing into coordinates for the shared
// incremental objective.
//
// Contract: Perturb applies one random move in place, records whatever
// Undo needs, and reports whether the encoding changed (a bounded-
// retry move set may fail every attempt; it must then leave the
// encoding untouched and report false). Undo reverts exactly the
// encoding change of the last Perturb; after a false Perturb it must
// be a no-op on the encoding. Pack decodes the current encoding into
// c, reporting false for infeasible states (which the kernel prices at
// +Inf without touching the model). Snapshot returns a deep copy of
// the encoding; Restore brings the encoding back to a snapshotted
// state without aliasing the snapshot (the kernel may restore the same
// snapshot again). Clone returns an independent deep copy with its own
// workspaces (used by the evolutionary engine's Neighbor and
// Crossover). Placement names the current encoding's packed geometry
// for result assembly.
type Representation interface {
	Perturb(rng *rand.Rand) bool
	Undo()
	Pack(c *Coords) bool
	Snapshot() any
	Restore(snapshot any)
	Clone() Representation
	Placement() (geom.Placement, error)
}

// MovedModules is an optional Representation extension for encodings
// that know exactly which modules the last Perturb displaced (direct-
// coordinate encodings, where a move is a small record rather than a
// global repack). The kernel then evaluates moves through
// Model.UpdateMoved — skipping even the coordinate diff — and falls
// back to a from-scratch Eval after Restore and at initialization,
// where no move identifies the dirty set.
type MovedModules interface {
	Representation
	MovedModules() []int
}

// Crossover is an optional Representation extension for recombination:
// CrossoverFrom replaces the receiver's encoding — a fresh clone of
// parent a — with a recombination of parents a and b (both the
// receiver's concrete type). Infeasible children are allowed; the
// kernel prices them at +Inf and selection discards them, the
// rejection strategy of permutation-encoding GAs. Representations
// implementing it become eligible for the memetic (genetic:*) engines.
type Crossover interface {
	Representation
	CrossoverFrom(a, b Representation, rng *rand.Rand)
}

// Config assembles a Solution's kernel-owned machinery.
type Config struct {
	// NewModel builds the solution-owned composite objective. It is
	// called lazily at the solution's first feasible packing — so
	// hierarchical adapters can derive the model's module universe from
	// packed geometry — and receives the solution's own representation
	// (clones build their model from their own representation).
	NewModel func(rep Representation) *cost.Model
	// FullEval forces every evaluation to recompute the whole objective
	// from scratch instead of incrementally — the benchmarking and
	// verification switch.
	FullEval bool
}

// Solution is the shared annealable state over one Representation: it
// owns the cost model and implements the full anneal.MutableSolution
// contract (plus Neighbor, MoveReporter and Crossoverer) on behalf of
// the representation.
type Solution struct {
	rep Representation
	cfg Config

	model      *cost.Model
	mm         MovedModules // non-nil when rep knows its dirty set
	coords     Coords
	cost       float64
	prevCost   float64
	modelMoved bool // last evaluation journaled into the model
	undo       anneal.Undo
}

// New builds a kernel solution over a fully-initialized representation
// and evaluates its initial cost (lazily building the model at the
// first feasible packing).
func New(rep Representation, cfg Config) *Solution {
	s := newSolution(rep, cfg)
	s.evaluate(false)
	return s
}

// newSolution wires a solution without the initial evaluation — the
// cloning paths mutate the fresh copy first and evaluate once after,
// so an offspring costs one pack + one evaluation, not two.
func newSolution(rep Representation, cfg Config) *Solution {
	s := &Solution{rep: rep, cfg: cfg}
	s.mm, _ = rep.(MovedModules)
	// One pre-bound undo closure per solution: the in-place protocol
	// allocates nothing per move.
	s.undo = func() {
		s.rep.Undo()
		if s.modelMoved {
			s.model.Undo()
			s.modelMoved = false
		}
		s.cost = s.prevCost
	}
	return s
}

// clone builds an independent, not-yet-evaluated solution over a deep
// copy of the representation, with its own (lazily built) model and
// workspaces; callers mutate the copy and then evaluate it once.
func (s *Solution) clone() *Solution {
	return newSolution(s.rep.Clone(), s.cfg)
}

// evaluate packs the current encoding and feeds the objective.
// afterMove selects the incremental path for representations that
// report their own dirty set: their moves go through UpdateMoved,
// while initialization and Restore — where no single move bounds the
// dirty set — re-evaluate from scratch. Topological representations
// always evaluate through the model's coordinate diff (which on a
// fresh model falls through to a full Eval).
func (s *Solution) evaluate(afterMove bool) {
	s.modelMoved = false
	if !s.rep.Pack(&s.coords) {
		s.cost = math.Inf(1)
		return
	}
	if s.model == nil {
		s.model = s.cfg.NewModel(s.rep)
	}
	c := &s.coords
	switch {
	case s.cfg.FullEval:
		s.cost = s.model.Eval(c.X, c.Y, c.W, c.H, c.Rot)
	case s.mm != nil:
		if afterMove {
			s.cost = s.model.UpdateMoved(c.X, c.Y, c.W, c.H, c.Rot, s.mm.MovedModules())
			s.modelMoved = true
		} else {
			s.cost = s.model.Eval(c.X, c.Y, c.W, c.H, c.Rot)
		}
	default:
		s.cost = s.model.Update(c.X, c.Y, c.W, c.H, c.Rot)
		s.modelMoved = true
	}
}

// Cost implements anneal.Solution.
func (s *Solution) Cost() float64 { return s.cost }

// Moved implements anneal.MoveReporter: the module ids the model's last
// evaluation actually touched (nil while no feasible packing has ever
// been evaluated).
func (s *Solution) Moved() []int {
	if s.model == nil {
		return nil
	}
	return s.model.Moved()
}

// Perturb implements anneal.MutableSolution: one random move through
// the representation, evaluated incrementally, with the shared
// exact-undo closure.
func (s *Solution) Perturb(rng *rand.Rand) anneal.Undo {
	s.prevCost = s.cost
	if s.rep.Perturb(rng) {
		s.evaluate(true)
	} else {
		// The encoding is untouched; make sure a later undo cannot
		// replay the previous move's model journal.
		s.modelMoved = false
	}
	return s.undo
}

// Neighbor implements anneal.Solution: the same move set applied to an
// independent deep copy.
func (s *Solution) Neighbor(rng *rand.Rand) anneal.Solution {
	next := s.clone()
	next.rep.Perturb(rng)
	next.evaluate(false)
	return next
}

// Snapshot implements anneal.MutableSolution.
func (s *Solution) Snapshot() any { return s.rep.Snapshot() }

// Restore implements anneal.MutableSolution: the encoding is restored
// and the objective reevaluated against it (incrementally over the
// model's diff for topological representations, from scratch for
// direct-coordinate ones — either way bit-exact with a full Eval).
func (s *Solution) Restore(snapshot any) {
	s.rep.Restore(snapshot)
	s.evaluate(false)
}

// Crossover implements anneal.Crossoverer: a recombination of the
// receiver and mate when the representation supports it, nil otherwise
// (the evolutionary engine then falls back to mutation).
func (s *Solution) Crossover(mate anneal.Solution, rng *rand.Rand) anneal.Solution {
	if _, ok := s.rep.(Crossover); !ok {
		return nil
	}
	m, ok := mate.(*Solution)
	if !ok {
		return nil
	}
	child := s.clone()
	child.rep.(Crossover).CrossoverFrom(s.rep, m.rep, rng)
	child.evaluate(false)
	return child
}

// Rep returns the solution's representation.
func (s *Solution) Rep() Representation { return s.rep }

// Model returns the solution-owned cost model (nil while no feasible
// packing has ever been evaluated).
func (s *Solution) Model() *cost.Model { return s.model }

// Placement names the current encoding's packed geometry.
func (s *Solution) Placement() (geom.Placement, error) { return s.rep.Placement() }

// Breakdown reports the model's per-term cost decomposition (nil while
// no feasible packing has ever been evaluated).
func (s *Solution) Breakdown() []cost.TermValue {
	if s.model == nil {
		return nil
	}
	return s.model.Breakdown()
}

// RefCost evaluates the representation's current encoding from scratch
// through a fresh model — the bit-exact reference the incremental path
// must match. It exists for property tests and diagnostics, not the
// hot path.
func (s *Solution) RefCost() float64 {
	var c Coords
	if !s.rep.Pack(&c) {
		return math.Inf(1)
	}
	return s.cfg.NewModel(s.rep).Eval(c.X, c.Y, c.W, c.H, c.Rot)
}
