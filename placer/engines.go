package placer

import (
	"context"

	"repro/internal/anneal"
	"repro/internal/hbstar"
	"repro/internal/place"
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
	out := newResult(p, e.info.Name, res.Placement, res.Cost, res.Stats, res.Breakdown)
	for _, v := range prob.ConstraintSet().Violations(res.Placement) {
		out.Violations = append(out.Violations, v.Error())
	}
	return out, nil
}

// geneticEngine adapts a memetic placer entry point: the same flat
// problem view as flatEngine, driven through the two-phase GA+SA
// search. The GA phase derives its budget from the annealing schedule
// (one generation per stage bound, offspring per the move bound's
// scale) so wire-level schedule ceilings bound the genetic work too.
type geneticEngine struct {
	info Info
	run  func(*place.Problem, anneal.GAOptions, anneal.Options) (*place.Result, error)
}

// geneticFactory wraps a memetic placer entry point as a registry
// factory.
func geneticFactory(info Info, run func(*place.Problem, anneal.GAOptions, anneal.Options) (*place.Result, error)) Factory {
	return func() Engine { return geneticEngine{info: info, run: run} }
}

// Info implements Engine.
func (e geneticEngine) Info() Info { return e.info }

// Solve implements Engine.
func (e geneticEngine) Solve(ctx context.Context, p *Problem, opt EngineOptions) (*Result, error) {
	prob, err := p.flat()
	if err != nil {
		return nil, err
	}
	sa := opt.annealOptions(ctx, e.info.Name)
	ga := anneal.GAOptions{
		Seed:             opt.Seed,
		Generations:      sa.MaxStages,
		StallGenerations: sa.StallStages,
		CrossoverRate:    place.DefaultCrossoverRate,
		Context:          ctx,
	}
	res, err := e.run(prob, ga, sa)
	if err != nil {
		return nil, err
	}
	out := newResult(p, e.info.Name, res.Placement, res.Cost, res.Stats, res.Breakdown)
	for _, v := range prob.ConstraintSet().Violations(res.Placement) {
		out.Violations = append(out.Violations, v.Error())
	}
	return out, nil
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
	out := newResult(p, HBStar, res.Placement, res.Cost, res.Stats, res.Breakdown)
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, v.Error())
	}
	return out, nil
}
