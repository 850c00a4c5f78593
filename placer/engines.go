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
	SeqPair  = "seqpair"
	BStar    = "bstar"
	TCG      = "tcg"
	Slicing  = "slicing"
	Absolute = "absolute"
	HBStar   = "hbstar"
	// Memetic engines over crossover-capable representations: a
	// crossover-enabled evolutionary exploration followed by annealing
	// refinement (the GA+SA scheme of Zhang et al.). The genetic:<repr>
	// naming is open-ended — any representation implementing
	// engine.Crossover can register one.
	GeneticSeqPair  = "genetic:seqpair"
	GeneticAbsolute = "genetic:absolute"
	// Section IV's deterministic placers: the hierarchically bounded
	// enumeration with enhanced or regular shape functions.
	ESF = "esf"
	RSF = "rsf"
)

// init self-registers the built-in engines. Registration order is
// load-bearing: it is the portfolio racing and tie-break order
// (seqpair, bstar, tcg) and the display order of every listing.
func init() {
	Register(SeqPair, flatFactory(Info{
		Name:        SeqPair,
		Portfolio:   true,
		Description: "simulated annealing over symmetric-feasible sequence pairs (symmetry by construction)",
	}, place.SeqPair))
	Register(BStar, flatFactory(Info{
		Name:        BStar,
		Portfolio:   true,
		Description: "B*-tree compacted placement",
	}, place.BStar))
	Register(TCG, flatFactory(Info{
		Name:        TCG,
		Portfolio:   true,
		Description: "transitive closure graph placement",
	}, place.TCG))
	Register(Slicing, flatFactory(Info{
		Name:        Slicing,
		Description: "slicing tree (normalized Polish expression) placement",
	}, place.Slicing))
	Register(Absolute, flatFactory(Info{
		Name:        Absolute,
		Description: "absolute-coordinate annealing baseline with overlap penalty",
	}, place.Absolute))
	Register(HBStar, func() Engine { return hbstarEngine{} })
	Register(GeneticSeqPair, geneticFactory(Info{
		Name:        GeneticSeqPair,
		Description: "memetic search (order-crossover GA + annealing refinement) over symmetric-feasible sequence pairs",
	}, place.GeneticSeqPair))
	Register(GeneticAbsolute, geneticFactory(Info{
		Name:        GeneticAbsolute,
		Description: "memetic search (uniform-crossover GA + annealing refinement) over absolute coordinates",
	}, place.GeneticAbsolute))
	Register(ESF, func() Engine { return shapeEngine{enhanced: true} })
	Register(RSF, func() Engine { return shapeEngine{enhanced: false} })
}

// flatEngine adapts one of the flat placers to the Engine interface:
// the canonical problem converts to the id-based flat view
// (hierarchy-spelled symmetry included), the placer anneals it, and
// the result is judged against the problem's full constraint set —
// symmetry included, whether or not the representation enforced it by
// construction. Only the sequence-pair engine enforces symmetry
// groups in its move set; the others ignore them in their moves but
// still optimize the identical composite objective (including the
// thermal term over symmetry pairs), so portfolio mode compares like
// for like.
type flatEngine struct {
	info Info
	run  func(*place.Problem, anneal.Options) (*place.Result, error)
}

// flatFactory wraps a flat placer entry point as a registry factory.
func flatFactory(info Info, run func(*place.Problem, anneal.Options) (*place.Result, error)) Factory {
	return func() Engine { return flatEngine{info: info, run: run} }
}

// Info implements Engine.
func (e flatEngine) Info() Info { return e.info }

// Solve implements Engine.
func (e flatEngine) Solve(ctx context.Context, p *Problem, opt EngineOptions) (*Result, error) {
	prob, err := p.flat()
	if err != nil {
		return nil, err
	}
	res, err := e.run(prob, opt.annealOptions(ctx, e.info.Name))
	if err != nil {
		return nil, err
	}
	return annealedResult(p, e.info.Name, res.Placement, res.Cost, res.Stats, res.Breakdown,
		prob.ConstraintSet().Violations(res.Placement))
}

// geneticFactory wraps a memetic placer entry point as a flat engine:
// the same flat problem view, driven through the two-phase GA+SA
// search. The GA phase derives its budget from the annealing schedule
// (one generation per stage bound, offspring per the move bound's
// scale) so wire-level schedule ceilings bound the genetic work too.
func geneticFactory(info Info, run func(*place.Problem, anneal.GAOptions, anneal.Options) (*place.Result, error)) Factory {
	return flatFactory(info, func(prob *place.Problem, sa anneal.Options) (*place.Result, error) {
		return run(prob, anneal.GAOptions{
			Seed:             sa.Seed,
			Generations:      sa.MaxStages,
			StallGenerations: sa.StallStages,
			CrossoverRate:    place.DefaultCrossoverRate,
			Context:          sa.Context,
		}, sa)
	})
}

// hbstarEngine adapts the hierarchical HB*-tree placer: the problem
// materializes as a benchmark circuit (hierarchy preserved, or
// synthesized from the flat groups), and symmetry is satisfied by
// construction through ASF-B*-tree symmetry islands.
type hbstarEngine struct{}

// Info implements Engine.
func (hbstarEngine) Info() Info {
	return Info{
		Name:         HBStar,
		Hierarchical: true,
		Description:  "hierarchical HB*-tree placement with ASF-B*-tree symmetry islands",
	}
}

// Solve implements Engine.
func (e hbstarEngine) Solve(ctx context.Context, p *Problem, opt EngineOptions) (*Result, error) {
	bench, err := p.bench()
	if err != nil {
		return nil, err
	}
	obj := p.Objective
	// ProxWeight tunes the flat engines' pull term only; the
	// hierarchical placer always enforces proximity through its
	// fragments penalty.
	hp := &hbstar.Problem{
		Bench:         bench,
		AreaWeight:    obj.AreaWeight,
		WireWeight:    obj.WireWeight,
		OutlineW:      obj.OutlineW,
		OutlineH:      obj.OutlineH,
		OutlineWeight: obj.OutlineWeight,
		ThermalWeight: obj.ThermalWeight,
		ThermalSigma:  obj.ThermalSigma,
	}
	if len(p.Power) > 0 {
		hp.Power = make(map[string]float64, len(p.Power))
		for i, pw := range p.Power {
			hp.Power[p.Modules[i].Name] = pw
		}
	}
	res, err := hbstar.Place(hp, opt.annealOptions(ctx, HBStar))
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
// regular (rsf) shape functions. Symmetry holds by construction. It
// ignores seed, workers and schedule, and refuses the problems and
// objective terms it cannot take (see CheckProblem). Cost and breakdown come from
// the problem's own flat model, like flatEngine's.
type shapeEngine struct {
	enhanced bool
}

// Info implements Engine.
func (e shapeEngine) Info() Info {
	if e.enhanced {
		return Info{Name: ESF, Hierarchical: true,
			Description: "deterministic hierarchically bounded enumeration with enhanced shape functions (Section IV)"}
	}
	return Info{Name: RSF, Hierarchical: true,
		Description: "deterministic hierarchically bounded enumeration with regular shape functions (Section IV)"}
}

// Solve implements Engine.
func (e shapeEngine) Solve(ctx context.Context, p *Problem, _ EngineOptions) (*Result, error) {
	if err := CheckProblem(e.Info().Name, p); err != nil {
		return nil, err
	}
	bench, err := p.bench()
	if err != nil {
		return nil, err
	}
	prob, err := p.flat()
	if err != nil {
		return nil, err
	}
	res, err := shapefn.Place(ctx, bench, e.enhanced)
	if err != nil {
		return nil, err
	}
	costVal, breakdown := prob.Cost(res.Placement)
	return newResult(p, e.Info().Name, res.Placement, costVal, anneal.Stats{}, breakdown,
		prob.ConstraintSet().Violations(res.Placement)), nil
}

// MaxShapeModules bounds the problem size esf and rsf accept: esf work
// grows about 3.5-fold per doubling of the module count, and a balanced
// binary hierarchy of random modules took 45 s at 256 modules and
// 2.6 min at 512 (2-core x86-64 VM, under 60 MB of heap). The paper's
// largest circuit has 110 modules.
const MaxShapeModules = 256

// CheckProblem reports why the named algorithm cannot solve p. Only
// esf and rsf refuse any problem: one over MaxShapeModules modules, or
// one whose objective has an outline, a proximity weight or a thermal
// weight, which the enumeration (it minimizes bounding-box area) would
// silently ignore. Their Solve calls it, and so does the wire format's
// request validation, so the daemon answers such a request 400 before
// queuing it.
func CheckProblem(algorithm string, p *Problem) error {
	if algorithm != ESF && algorithm != RSF {
		return nil
	}
	if p.N() > MaxShapeModules {
		return fmt.Errorf("placer: %s takes at most %d modules, the problem has %d", algorithm, MaxShapeModules, p.N())
	}
	var term string
	switch o := p.Objective; {
	case o.OutlineW > 0 || o.OutlineH > 0 || o.OutlineWeight > 0:
		term = "outline"
	case o.ProxWeight > 0:
		term = "proximity"
	case o.ThermalWeight > 0:
		term = "thermal"
	default:
		return nil
	}
	return fmt.Errorf("placer: %s minimizes bounding-box area over the hierarchy and cannot honour the %s term; drop it from the objective", algorithm, term)
}
