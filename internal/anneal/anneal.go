// Package anneal provides the stochastic optimization engines behind
// the paper's "statistical solution approaches": a simulated-annealing
// driver (Kirkpatrick et al. [12]), parallel multi-start annealing
// (ParallelAnneal), parallel tempering (TemperAnneal), a mutation-based
// evolutionary baseline, and the two-phase GA+SA combination of Zhang
// et al. [28].
//
// The annealers run one protocol, MutableSolution: a solution mutates
// itself under a random move and reverts a rejected move through exact
// undo — the move-and-undo scheme of the B*-tree annealing literature
// — so a move allocates nothing. Serial, multi-start and tempered runs
// all advance the same chain type through the same stage body; they
// differ only in how many chains run and what happens between stages.
// The evolutionary engine needs independent copies for its population,
// so it alone runs the cloning protocol, Solution.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// Solution is one point of the evolutionary engine's search space.
// Neighbor must return a new Solution (not mutate the receiver), so a
// population can hold independent copies.
type Solution interface {
	// Cost is the objective to minimize.
	Cost() float64
	// Neighbor returns a random neighboring solution.
	Neighbor(rng *rand.Rand) Solution
}

// Undo reverts the most recent Perturb on a MutableSolution, restoring
// state and cost exactly.
type Undo func()

// MutableSolution is the solution protocol of the annealers: a
// solution that mutates itself under perturbation and can revert
// exactly. Rejected moves call the returned Undo, accepted moves
// simply keep the mutation, and the best-so-far is tracked through
// Snapshot.
//
// Contract: Perturb applies one random move and returns an Undo that
// restores both the state and the value reported by Cost exactly (a
// well-behaved implementation returns the same, pre-allocated Undo
// every time, so the protocol itself allocates nothing per move).
// Snapshot returns an opaque deep copy of the current state; Restore
// brings the solution back to a previously snapshotted state and must
// not alias the snapshot (the engine may restore the same snapshot
// again). The engines mutate the initial solution they are given; the
// returned best solution is that same value restored to its best
// state.
type MutableSolution interface {
	Cost() float64
	Perturb(rng *rand.Rand) Undo
	Snapshot() any
	Restore(snapshot any)
}

// MoveReporter is an optional extension of MutableSolution implemented
// by solutions with incremental cost models: Moved returns the ids of
// the modules whose geometry the last Perturb actually changed (the
// dirty set the incremental objective reevaluated). The engines never
// require it; it exists so tests and diagnostics can cross-check
// incremental evaluation against a from-scratch one.
type MoveReporter interface {
	Moved() []int
}

// Options configure a simulated-annealing run. The zero value is
// usable: sensible defaults are filled in by the engines.
type Options struct {
	// InitialTemp is the starting temperature. If 0 it is calibrated
	// so the initial acceptance ratio of uphill moves is about 0.9,
	// following standard practice.
	InitialTemp float64
	// Cooling is the geometric cooling factor per stage (0 < c < 1).
	// Default 0.95.
	Cooling float64
	// MovesPerStage is the number of proposed moves per temperature
	// stage. Default 100.
	MovesPerStage int
	// MinTemp stops the schedule. Default 1e-3 × InitialTemp.
	MinTemp float64
	// MaxStages bounds the number of temperature stages. Default 500.
	MaxStages int
	// StallStages stops the run after this many stages without
	// improving the best cost. Default 50.
	StallStages int
	// Seed for the internal RNG (0 means a fixed default, keeping
	// runs reproducible).
	Seed int64
	// Workers selects parallel multi-start annealing: values above 1
	// run that many independent chains (each with its own RNG and
	// workspaces) and keep the best result. 0 and 1 mean a single
	// serial chain. Placers honor it through their ParallelAnneal
	// wiring; Anneal itself always runs one chain.
	Workers int
	// Context, when non-nil, cancels the run cooperatively. It is
	// checked once per temperature stage — never per move, so the hot
	// loop stays allocation- and branch-cheap — and a cancelled run
	// stops at the next stage boundary, returning the best solution
	// found so far with Stats.Cancelled set. Cancellation does not
	// consume randomness, so a run that is not cancelled is
	// bit-identical to one with a nil Context.
	Context context.Context
	// Progress, when non-nil, is called after every completed
	// temperature stage with a snapshot of the statistics so far
	// (Stages, Moves, Accepted, Improved, FinalTemp, and BestCost as
	// of that stage). It runs on the annealing goroutine, so it must
	// be cheap; ParallelAnneal calls it concurrently from every chain
	// with Stats.Worker identifying the chain, so it must also be safe
	// for concurrent use. Observing progress never perturbs the
	// search: the callback sees a copy.
	Progress func(Stats)
	// Checkpoint, when non-nil, receives the best-so-far snapshot
	// (the same opaque value MutableSolution.Snapshot returns, which
	// the engine never mutates) every CheckpointEvery stages in which
	// the best improved, and once more when the run ends — including
	// a cancelled run, where the final capture is the whole point.
	// It runs on the annealing goroutine; ParallelAnneal calls it
	// concurrently from every chain, and TemperAnneal captures the
	// ladder-wide best from its coordinator.
	Checkpoint func(snapshot any, cost float64, stage int)
	// CheckpointEvery is the stage period of Checkpoint captures.
	// Zero or negative means every 5 stages.
	CheckpointEvery int
	// Resume, when non-nil, is consulted once at the start of a run:
	// if it returns ok, the engine restores the
	// snapshot — a value a previous run's Checkpoint captured from
	// the same solution type on the same problem — and anneals from
	// that state instead of the initial solution, so an interrupted
	// run's progress is never repeated. The returned best is then
	// never worse than the checkpoint. Multi-start and tempered runs
	// resume only chain 0, keeping the other chains' diversity.
	Resume func() (snapshot any, ok bool)
	// TemperChains selects parallel tempering (replica exchange):
	// values above 1 run that many chains at a geometric temperature
	// ladder with periodic Metropolis state exchanges between
	// neighboring rungs (TemperAnneal). 0 and 1 mean no tempering.
	// Placers honor it through engine.Run; when both Workers and
	// TemperChains are set, tempering wins.
	TemperChains int
	// ExchangeEvery is the stage period of replica-exchange sweeps.
	// Zero or negative disables exchanges, which makes TemperAnneal
	// bit-identical to ParallelAnneal with TemperChains workers.
	ExchangeEvery int
	// TemperLadder is the geometric spacing between neighboring rungs
	// of the tempering temperature ladder (rung k runs at
	// TemperLadder^k times the base temperature). Values ≤ 1 mean the
	// default, 1.6.
	TemperLadder float64
	// Flight, when non-nil, receives per-stage flight-recorder events
	// (temperature, best/current cost, cumulative move counters,
	// replica exchanges, checkpoint captures and resumes). Recording never
	// consumes randomness and never perturbs the search — a solve with
	// a recorder attached is bit-identical to one without. A nil
	// Flight costs one pointer test per temperature stage; see
	// internal/obs. ParallelAnneal and TemperAnneal share one recorder
	// across all chains (obs.Flight is concurrency-safe).
	Flight *obs.Flight
}

func (o Options) withDefaults() Options {
	if o.Cooling <= 0 || o.Cooling >= 1 {
		o.Cooling = 0.95
	}
	if o.MovesPerStage <= 0 {
		o.MovesPerStage = 100
	}
	if o.MaxStages <= 0 {
		o.MaxStages = 500
	}
	if o.StallStages <= 0 {
		o.StallStages = 50
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 5
	}
	return o
}

// Stats reports what a run did.
type Stats struct {
	Stages    int
	Moves     int
	Accepted  int
	Improved  int // accepted moves that improved the incumbent
	FinalTemp float64
	BestCost  float64
	InitCost  float64
	// Worker identifies the chain that produced these statistics.
	// ParallelAnneal stamps it on every Progress snapshot with the
	// multi-start chain id and, in the aggregate it returns, records
	// the winning chain. TemperAnneal stamps it with the tempering
	// rung (0 the coldest): replicas are pinned to their rung — an
	// accepted exchange swaps states between rungs, never the chains
	// themselves — so a rung's Progress stream tracks one temperature
	// level across the whole run, and the aggregate records the
	// winning rung. Serial runs leave it 0.
	Worker int
	// Cancelled reports that Options.Context was cancelled and the run
	// stopped early, returning the best solution seen so far.
	Cancelled bool
	// Exchanges and ExchangeAccepted count replica-exchange attempts
	// and Metropolis-accepted swaps. Only TemperAnneal with exchanges
	// enabled sets them; all other engines leave them 0.
	Exchanges        int
	ExchangeAccepted int
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	suffix := ""
	if s.Cancelled {
		suffix = " (cancelled)"
	}
	return fmt.Sprintf("stages=%d moves=%d accepted=%d improved=%d cost %.4g -> %.4g%s",
		s.Stages, s.Moves, s.Accepted, s.Improved, s.InitCost, s.BestCost, suffix)
}

// cancelled reports whether the run's context has been cancelled; a
// nil context never is.
func (o *Options) cancelled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

// report sends the callback a per-stage snapshot with the best cost so
// far filled in (the engines only commit BestCost at the end).
func (o *Options) report(stats Stats, bestCost float64) {
	if o.Progress == nil {
		return
	}
	stats.BestCost = bestCost
	o.Progress(stats)
}

// recordStage writes one completed temperature stage into the flight
// recorder: the post-cooling temperature, current and best cost and
// cumulative counters. Callers guard with a nil test on the recorder
// so the disabled path builds no event.
func recordStage(f *obs.Flight, worker int, st *Stats, cur, best float64) {
	f.Record(obs.Event{
		Kind:     obs.EventStage,
		Worker:   int32(worker),
		Stage:    int32(st.Stages),
		Temp:     st.FinalTemp,
		Best:     best,
		Cur:      cur,
		Moves:    int64(st.Moves),
		Accepted: int64(st.Accepted),
		Improved: int64(st.Improved),
		Peer:     -1,
	})
}

// checkpoint hands a best-so-far snapshot to Options.Checkpoint and
// records the capture in the flight recorder under worker (-1 for a
// ladder-wide capture, which is no single chain's).
func (o *Options) checkpoint(snap any, cost float64, stage, worker int) {
	o.Checkpoint(snap, cost, stage)
	o.Flight.Record(obs.Event{Kind: obs.EventCheckpoint, Worker: int32(worker), Stage: int32(stage), Best: cost, Peer: -1})
}

// chain is one annealing chain: a solution with its own RNG, current
// cost, temperature and best-so-far snapshot. Serial runs advance one
// chain, multi-start runs one per worker, and tempering one per rung,
// all through runStage, so a chain walks the same trajectory whichever
// engine drives it. stats.Worker carries the chain id onto Progress
// snapshots and flight events; a tempering chain stays on its rung
// (exchanges swap states, not chains), so its stream tracks one
// temperature level.
type chain struct {
	sol      MutableSolution
	rng      *rand.Rand
	cost     float64
	temp     float64
	bestSnap any
	bestCost float64
	stats    Stats
}

// newChain prepares chain id over sol with the RNG of seed. Chain 0
// first resumes from Options.Resume, if it yields a checkpoint: the
// run then proceeds exactly as if the checkpoint were the
// (re-evaluated) initial solution, so its best can never be worse
// than the checkpoint. The initial state is then the first best, and
// the temperature is Options.InitialTemp or, when that is unset,
// calibrated by a short walk on the chain's own RNG.
func newChain(sol MutableSolution, id int, seed int64, opt *Options) *chain {
	c := &chain{sol: sol, rng: rand.New(rand.NewSource(seed + 1))}
	c.stats.Worker = id
	resumed := false
	if id == 0 && opt.Resume != nil {
		if snap, ok := opt.Resume(); ok {
			sol.Restore(snap)
			resumed = true
		}
	}
	c.cost = sol.Cost()
	if resumed && opt.Flight != nil {
		opt.Flight.Record(obs.Event{Kind: obs.EventResume, Worker: int32(id), Cur: c.cost, Best: c.cost, Peer: -1})
	}
	c.stats.InitCost = c.cost
	c.bestSnap = sol.Snapshot()
	c.bestCost = c.cost
	c.temp = opt.InitialTemp
	if c.temp <= 0 {
		c.temp = calibrate(sol, c.rng)
		c.cost = sol.Cost()
	}
	return c
}

// runStage advances the chain by one temperature stage — MovesPerStage
// Metropolis moves, then one cooling step — inside a "stage" span
// parented on opt.Context, and reports the stage to Progress and the
// flight recorder. It returns whether the chain's best improved.
//
// With observability off the stage boundary costs exactly one atomic
// load (the disarmed span tracer) and one pointer test (the nil
// flight recorder) — the contract BenchmarkAnnealObsOverhead pins.
func (c *chain) runStage(opt *Options) (improved bool) {
	stageSpan := obs.ChildSpan(opt.Context, "stage", obs.Int("chain", c.stats.Worker), obs.Int("stage", c.stats.Stages+1))
	c.stats.Stages++
	for move := 0; move < opt.MovesPerStage; move++ {
		c.stats.Moves++
		undo := c.sol.Perturb(c.rng)
		nextCost := c.sol.Cost()
		delta := nextCost - c.cost
		if delta <= 0 || c.rng.Float64() < math.Exp(-delta/c.temp) {
			c.stats.Accepted++
			if delta < 0 {
				c.stats.Improved++
			}
			c.cost = nextCost
			if c.cost < c.bestCost {
				c.bestCost = c.cost
				c.bestSnap = c.sol.Snapshot()
				improved = true
			}
		} else {
			undo()
		}
	}
	c.temp *= opt.Cooling
	c.stats.FinalTemp = c.temp
	opt.report(c.stats, c.bestCost)
	if opt.Flight != nil {
		recordStage(opt.Flight, c.stats.Worker, &c.stats, c.cost, c.bestCost)
	}
	stageSpan.End()
	return improved
}

// noteBest records the current state as the chain's best if it
// improves on it (used after a replica exchange delivers a state the
// chain's own walk never visited).
func (c *chain) noteBest() {
	if c.cost < c.bestCost {
		c.bestCost = c.cost
		c.bestSnap = c.sol.Snapshot()
	}
}

// Anneal runs simulated annealing from the initial solution and
// returns it restored to the best state visited, with run statistics.
func Anneal[S MutableSolution](initial S, opt Options) (S, Stats) {
	return initial, annealChain(initial, 0, opt)
}

// annealChain runs chain id on sol to the end of the schedule, with
// the serial stall rule and periodic checkpoints of the chain's best,
// and leaves sol restored to that best.
func annealChain(sol MutableSolution, id int, opt Options) Stats {
	opt = opt.withDefaults()
	var runSpan *obs.ActiveSpan
	opt.Context, runSpan = obs.StartSpan(opt.Context, "anneal", obs.Int("chain", id))
	defer runSpan.End()

	c := newChain(sol, id, opt.Seed, &opt)
	minTemp := opt.MinTemp
	if minTemp <= 0 {
		minTemp = c.temp * 1e-3
	}
	// The initial best is capture-worthy: a run cancelled before any
	// improvement still checkpoints a resumable state.
	newSinceCapture := true
	stall := 0
	for c.stats.Stages < opt.MaxStages && c.temp > minTemp && stall < opt.StallStages {
		if opt.cancelled() {
			c.stats.Cancelled = true
			break
		}
		if c.runStage(&opt) {
			stall = 0
			newSinceCapture = true
		} else {
			stall++
		}
		if opt.Checkpoint != nil && newSinceCapture && c.stats.Stages%opt.CheckpointEvery == 0 {
			opt.checkpoint(c.bestSnap, c.bestCost, c.stats.Stages, id)
			newSinceCapture = false
		}
	}
	c.stats.BestCost = c.bestCost
	// Final capture, so an interruption between periodic captures (a
	// cancelled run in particular) never loses the latest best.
	if opt.Checkpoint != nil && newSinceCapture {
		opt.checkpoint(c.bestSnap, c.bestCost, c.stats.Stages, id)
	}
	sol.Restore(c.bestSnap)
	return c.stats
}

// calibrate estimates an initial temperature from a short random walk:
// the mean uphill delta divided by ln(1/p₀) with p₀ = 0.9, so roughly
// 90 % of uphill moves are initially accepted. Moves into non-finite
// cost (rejected/infeasible states, which placers encode as infinite
// cost) are undone and excluded from the estimate — an infinite
// temperature would otherwise disable the whole schedule. The initial
// state is restored before the schedule starts.
func calibrate(s MutableSolution, rng *rand.Rand) float64 {
	const samples = 40
	start := s.Snapshot()
	curCost := s.Cost()
	var sum float64
	var ups int
	for i := 0; i < samples; i++ {
		undo := s.Perturb(rng)
		nextCost := s.Cost()
		if math.IsInf(nextCost, 0) || math.IsNaN(nextCost) {
			undo() // stay on the feasible walk
			continue
		}
		if d := nextCost - curCost; d > 0 && !math.IsInf(d, 0) {
			sum += d
			ups++
		}
		curCost = nextCost
	}
	s.Restore(start)
	if ups == 0 || sum == 0 {
		return 1.0
	}
	return (sum / float64(ups)) / math.Log(1/0.9)
}
