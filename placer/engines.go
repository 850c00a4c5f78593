package placer

import (
	"context"
	"fmt"

	"repro/internal/anneal"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/hbstar"
	"repro/internal/place"
	"repro/internal/shapefn"
)

// Built-in algorithm names. The strings double as the wire format's
// options.method values and the CLI's -method arguments.
const (
	SeqPair = "seqpair"
	BStar   = "bstar"
	HBStar  = "hbstar"
	// Memetic engines over crossover-capable representations: a
	// crossover-enabled evolutionary exploration followed by annealing
	// refinement (the GA+SA scheme of Zhang et al.). The genetic:<repr>
	// naming is open-ended — any representation implementing
	// engine.Crossover can register one.
	GeneticSeqPair = "genetic:seqpair"
	// Section IV's deterministic placers: the hierarchically bounded
	// enumeration with enhanced or regular shape functions.
	ESF = "esf"
	RSF = "rsf"
)

// init self-registers the built-in engines, each with the
// capabilities it states in its Info. Registration order is
// load-bearing: it is the portfolio racing and tie-break order
// (seqpair, bstar) and the display order of every listing.
func init() {
	registerFlat(Info{
		Name:        SeqPair,
		Portfolio:   true,
		Symmetric:   true,
		Description: "simulated annealing over symmetric-feasible sequence pairs (symmetry by construction)",
	}, place.SeqPair)
	registerFlat(Info{
		Name:        BStar,
		Portfolio:   true,
		Description: "B*-tree compacted placement",
	}, place.BStar)
	Register(Info{
		Name:        HBStar,
		Kind:        "hierarchical",
		Symmetric:   true,
		Description: "hierarchical HB*-tree placement with ASF-B*-tree symmetry islands",
	}, func() Engine { return hbstarEngine{} })
	registerFlat(Info{
		Name:        GeneticSeqPair,
		Symmetric:   true,
		Description: "memetic search (order-crossover GA + annealing refinement) over symmetric-feasible sequence pairs",
	}, genetic(place.GeneticSeqPair))
	for _, e := range []shapeEngine{{ESF, "enhanced"}, {RSF, "regular"}} {
		Register(Info{
			Name:            e.name,
			Kind:            "hierarchical",
			IgnoresSchedule: true,
			Refuses:         []string{"outline", "proximity", "thermal"},
			MaxModules:      MaxShapeModules,
			Symmetric:       true,
			Description:     "deterministic hierarchically bounded enumeration with " + e.functions + " shape functions (Section IV)",
		}, func() Engine { return e })
	}
}

// flatEngine adapts one of the flat placers to the Engine interface:
// the canonical problem converts to the id-based flat view
// (hierarchy-spelled symmetry included), the placer anneals it, and
// the result is judged against the problem's device-level symmetry
// groups, whether or not the representation enforced them by
// construction (Info.Symmetric says which do). The others still
// optimize the identical composite objective (including the thermal
// term over symmetry pairs), so portfolio mode compares like for like.
type flatEngine struct {
	name string
	run  func(*place.Problem, anneal.Options) (*place.Result, error)
}

// registerFlat registers a flat placer entry point under info.
func registerFlat(info Info, run func(*place.Problem, anneal.Options) (*place.Result, error)) {
	Register(info, func() Engine { return flatEngine{name: info.Name, run: run} })
}

// Solve implements Engine.
func (e flatEngine) Solve(ctx context.Context, p *Problem, opt EngineOptions) (*Result, error) {
	prob, err := p.flat()
	if err != nil {
		return nil, err
	}
	res, err := e.run(prob, opt.annealOptions(ctx, e.name))
	if err != nil {
		return nil, err
	}
	return annealedResult(p, e.name, res.Placement, res.Cost, res.Stats, res.Breakdown,
		prob.ConstraintSet().Violations(res.Placement))
}

// genetic wraps a memetic placer entry point as a flat placer: the
// same flat problem view, driven through the two-phase GA+SA search.
// The GA phase derives its budget from the annealing schedule (one
// generation per stage bound, offspring per the move bound's scale)
// so wire-level schedule ceilings bound the genetic work too.
func genetic(run func(*place.Problem, anneal.GAOptions, anneal.Options) (*place.Result, error)) func(*place.Problem, anneal.Options) (*place.Result, error) {
	return func(prob *place.Problem, sa anneal.Options) (*place.Result, error) {
		return run(prob, anneal.GAOptions{
			Seed:             sa.Seed,
			Generations:      sa.MaxStages,
			StallGenerations: sa.StallStages,
			CrossoverRate:    place.DefaultCrossoverRate,
			Context:          sa.Context,
		}, sa)
	}
}

// hbstarEngine adapts the hierarchical HB*-tree placer: the same flat
// view the flat engines anneal, under the problem's hierarchy (or one
// synthesized from the flat groups).
type hbstarEngine struct{}

// Solve implements Engine.
func (e hbstarEngine) Solve(ctx context.Context, p *Problem, opt EngineOptions) (*Result, error) {
	prob, err := p.flat()
	if err != nil {
		return nil, err
	}
	res, err := hbstar.Place(prob, p.tree(), opt.annealOptions(ctx, HBStar))
	if err != nil {
		return nil, err
	}
	return annealedResult(p, HBStar, res.Placement, res.Cost, res.Stats, res.Breakdown, res.Violations)
}

// annealedResult assembles an annealing engine's result, and is the
// one zero-stage guard: a run that completed no stage without being
// cancelled is its random initial placement, not a solved one. A
// MinTemp above the calibrated initial temperature does that, and
// static validation cannot see it. Under WithPortfolio each racer is
// judged on its own counters, before the race aggregates them.
func annealedResult(p *Problem, algorithm string, pl geom.Placement, costVal float64, stats anneal.Stats, breakdown []cost.TermValue, violations []error) (*Result, error) {
	if stats.Stages == 0 && !stats.Cancelled {
		return nil, fmt.Errorf("placer: %s ran zero annealing stages; check MinTemp against the (calibrated) initial temperature", algorithm)
	}
	return newResult(p, algorithm, pl, costVal, stats, breakdown, violations), nil
}

// shapeEngine adapts Section IV's deterministic placer: the
// hierarchically bounded enumeration over the problem's hierarchy
// (or one synthesized from the flat groups), with enhanced (esf) or
// regular (rsf) shape functions. Its Info states what it ignores and
// refuses. Cost and breakdown come from the problem's own flat model,
// like flatEngine's.
type shapeEngine struct {
	name      string
	functions string // "enhanced" or "regular"
}

// Solve implements Engine.
func (e shapeEngine) Solve(ctx context.Context, p *Problem, _ EngineOptions) (*Result, error) {
	prob, err := p.flat()
	if err != nil {
		return nil, err
	}
	res, err := shapefn.Place(ctx, prob, p.tree(), e.functions == "enhanced")
	if err != nil {
		return nil, err
	}
	costVal, breakdown := prob.Cost(res.Placement)
	return newResult(p, e.name, res.Placement, costVal, anneal.Stats{}, breakdown,
		prob.ConstraintSet().Violations(res.Placement)), nil
}

// MaxShapeModules bounds the problem size esf and rsf accept: esf work
// grows about 2.9-fold per doubling of the module count, and a
// balanced binary hierarchy of random modules took 2.9 s at 256
// modules and 8.5 s at 512 (2-core x86-64 VM, under 20 MB of heap in
// use). The paper's largest circuit has 110 modules. Raising the
// ceiling changes which requests the daemon accepts.
const MaxShapeModules = 256

// optionalTerms are the objective terms an engine may refuse
// (Info.Refuses), each with whether an objective sets it.
var optionalTerms = map[string]func(Objective) bool{
	"outline":   func(o Objective) bool { return o.OutlineW > 0 || o.OutlineH > 0 || o.OutlineWeight > 0 },
	"proximity": func(o Objective) bool { return o.ProxWeight > 0 },
	"thermal":   func(o Objective) bool { return o.ThermalWeight > 0 },
}

// CheckProblem reports why the named algorithm's Info refuses p: over
// its MaxModules, or an objective term it Refuses and would otherwise
// silently ignore. The message says only what the Info states. An
// unregistered name (the wire's portfolio) passes. Solve runs it before
// every engine, portfolio racers included, and so does wire request
// validation: the daemon answers 400 before queuing.
func CheckProblem(algorithm string, p *Problem) error {
	info, _ := Lookup(algorithm)
	if info.MaxModules > 0 && p.N() > info.MaxModules {
		return fmt.Errorf("placer: %s takes at most %d modules, the problem has %d", algorithm, info.MaxModules, p.N())
	}
	for _, term := range info.Refuses {
		if optionalTerms[term](p.Objective) {
			return fmt.Errorf("placer: %s cannot honour the %s term; drop it from the objective", algorithm, term)
		}
	}
	return nil
}
