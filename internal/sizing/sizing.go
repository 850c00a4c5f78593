// Package sizing implements the simulation-based, layout-aware sizing
// flow of Section V (Castro-Lopez et al. [4], Fig. 9): an optimizer
// explores the design space of a folded-cascode OTA (widths, bias
// current and — in layout-aware mode — fold counts), evaluating each
// candidate with the analytic performance model. In layout-aware mode
// every evaluation additionally instantiates the layout template,
// extracts wire parasitics and feeds them back into the evaluation,
// and the cost includes the geometric objectives (area, aspect ratio).
// Nominal mode reproduces the conventional flow: electrical sizing
// with no geometric or parasitic considerations, the layout generated
// only afterwards — the paper's Fig. 10(a) versus 10(b) experiment.
package sizing

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/anneal"
	"repro/internal/extract"
	"repro/internal/mos"
	"repro/internal/perf"
	"repro/internal/template"
)

// Mode selects the sizing flow.
type Mode int

// Sizing modes.
const (
	// Nominal sizes electrically only: no layout in the loop, fold
	// counts left at 1 (layout is generated afterwards, naively).
	Nominal Mode = iota
	// LayoutAware runs template generation + extraction inside the
	// loop and optimizes geometry (folds, area, aspect) concurrently.
	LayoutAware
)

// Problem is one sizing task.
type Problem struct {
	Spec perf.Spec
	Mode Mode
	// MaxAspect bounds height/width (and its inverse) in layout-aware
	// mode; 0 disables the restriction.
	MaxAspect float64
	// Base is the starting design; its L values and supply stay fixed
	// during sizing.
	Base perf.FoldedCascode
}

// Result reports a finished sizing run.
type Result struct {
	Design perf.FoldedCascode
	Layout *template.Instance

	// Pre is the evaluation without layout parasitics (schematic
	// level, junction capacitances only); Post includes the extracted
	// wire parasitics of the generated layout.
	Pre, Post perf.Perf

	ViolationsPre  []string
	ViolationsPost []string

	// ExtractFraction is extraction time / total optimization time —
	// the paper's "only 17 % of the total sizing time" observation.
	ExtractFraction float64
	Elapsed         time.Duration
	Stats           anneal.Stats
}

// timers accumulates instrumentation across the annealing run.
type timers struct {
	extract time.Duration
}

// solution is the annealer's candidate design. It mutates in place:
// a move edits the design and re-evaluates it, and its undo puts back
// the design and cost the move started from.
type solution struct {
	prob *Problem
	tim  *timers
	state
	prev state       // the state before the last Perturb
	undo anneal.Undo // pre-bound revert to prev
}

// state is a design with its evaluated cost: the unit of snapshot and
// undo, so neither ever re-runs the evaluation (or its extraction).
type state struct {
	d    perf.FoldedCascode
	cost float64
}

func newSolution(p *Problem, tim *timers) *solution {
	s := &solution{prob: p, tim: tim, state: state{d: p.Base}}
	s.undo = func() { s.state = s.prev }
	s.evaluate()
	return s
}

// specCost turns violations into a smooth penalty: relative shortfall
// per spec entry, heavily weighted so feasibility dominates the
// objective.
func specCost(s perf.Spec, p perf.Perf) float64 {
	c := 0.0
	// A fixed step per violated spec makes feasibility lexically
	// dominant over the power/area objectives (no amount of power
	// saving can buy a violation), while the proportional term still
	// points the search toward feasibility.
	rel := func(want, got float64) {
		if got < want {
			c += 50 + 100*(want-got)/math.Abs(want)
		}
	}
	rel(s.MinGainDB, p.GainDB)
	rel(s.MinGBW, p.GBW)
	rel(s.MinPM, p.PM)
	rel(s.MinSR, p.SR)
	if s.MaxPower > 0 && p.Power > s.MaxPower {
		c += 50 + 100*(p.Power-s.MaxPower)/s.MaxPower
	}
	if !p.OpOK {
		c += 100
	}
	return c
}

func (s *solution) evaluate() {
	switch s.prob.Mode {
	case Nominal:
		// Schematic-level sizing: neither wire nor junction
		// parasitics are visible to the optimizer.
		p, err := s.d.Evaluate(perf.Parasitics{IgnoreJunctions: true})
		if err != nil {
			s.cost = math.Inf(1)
			return
		}
		// Electrical objectives only: meet the spec, minimize power.
		s.cost = specCost(s.prob.Spec, p) + p.Power/1e-4
	case LayoutAware:
		tmpl, foot := template.ForFoldedCascode(s.d)
		inst, err := tmpl.Generate(foot)
		if err != nil {
			s.cost = math.Inf(1)
			return
		}
		t0 := time.Now()
		par := extract.FoldedCascode(inst)
		s.tim.extract += time.Since(t0)
		p, err := s.d.Evaluate(par)
		if err != nil {
			s.cost = math.Inf(1)
			return
		}
		cost := specCost(s.prob.Spec, p) + p.Power/1e-4
		// Geometric objectives: area (µm², normalized) and the aspect
		// restriction.
		cost += inst.Area() / 20000
		if s.prob.MaxAspect > 0 {
			ar := inst.AspectRatio()
			if ar < 1 {
				ar = 1 / ar
			}
			if ar > s.prob.MaxAspect {
				cost += 5 * (ar - s.prob.MaxAspect)
			}
		}
		s.cost = cost
	}
}

// Cost implements anneal.MutableSolution.
func (s *solution) Cost() float64 { return s.cost }

// Perturb implements anneal.MutableSolution: scale one width or the
// bias current, or (layout-aware) step one fold count, and evaluate
// the new design.
func (s *solution) Perturb(rng *rand.Rand) anneal.Undo {
	s.prev = s.state
	devs := []*mos.Device{&s.d.In, &s.d.Tail, &s.d.Src, &s.d.CasP, &s.d.CasN, &s.d.Mir}
	nMoves := 7
	if s.prob.Mode == LayoutAware {
		nMoves = 13 // six fold moves in addition
	}
	switch k := rng.Intn(nMoves); {
	case k < 6: // scale a width
		d := devs[k]
		factor := 0.75 + rng.Float64()*0.6
		d.W = clamp(d.W*factor, 2, 600)
		// Folding just tracks legality here (fingers wide enough).
		// Nominal mode never optimizes it — the "layout as an
		// afterthought" flow; layout-aware mode additionally explores
		// fold counts through the dedicated moves below.
		d.Folds = clampFolds(d.W, d.Folds)
	case k == 6: // scale the tail current
		factor := 0.75 + rng.Float64()*0.6
		s.d.ITail = clamp(s.d.ITail*factor, 10e-6, 5e-3)
	default: // step a fold count (layout-aware only)
		d := devs[k-7]
		step := 1
		if rng.Intn(2) == 0 {
			step = -1
		}
		d.Folds = clampFolds(d.W, d.Folds+step)
	}
	s.evaluate()
	return s.undo
}

// Snapshot implements anneal.MutableSolution.
func (s *solution) Snapshot() any { return s.state }

// Restore implements anneal.MutableSolution.
func (s *solution) Restore(snap any) { s.state = snap.(state) }

func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// clampFolds keeps the fold count in [1, 64] with fingers no narrower
// than 0.5 µm.
func clampFolds(w float64, folds int) int {
	if folds < 1 {
		folds = 1
	}
	if folds > 64 {
		folds = 64
	}
	for folds > 1 && w/float64(folds) < 0.5 {
		folds--
	}
	return folds
}

// Run executes the sizing flow and returns the final design with its
// generated layout and pre-/post-extraction evaluations.
func Run(p Problem, opt anneal.Options) (*Result, error) {
	if err := p.Base.Validate(); err != nil {
		return nil, fmt.Errorf("sizing: invalid base design: %v", err)
	}
	start := time.Now()
	tim := &timers{}
	sol, stats := anneal.Anneal(newSolution(&p, tim), opt)
	elapsed := time.Since(start)

	res := &Result{Design: sol.d, Elapsed: elapsed, Stats: stats}
	// Pre-layout report: what the sizing flow itself saw. Nominal mode
	// saw the junction-free schematic; layout-aware saw junctions (and
	// wires, reported under Post).
	pre, err := sol.d.Evaluate(perf.Parasitics{IgnoreJunctions: p.Mode == Nominal})
	if err != nil {
		return nil, err
	}
	res.Pre = pre
	res.ViolationsPre = p.Spec.Violations(pre)

	tmpl, foot := template.ForFoldedCascode(sol.d)
	inst, err := tmpl.Generate(foot)
	if err != nil {
		return nil, err
	}
	res.Layout = inst
	par := extract.FoldedCascode(inst)
	post, err := sol.d.Evaluate(par)
	if err != nil {
		return nil, err
	}
	res.Post = post
	res.ViolationsPost = p.Spec.Violations(post)
	if elapsed > 0 {
		res.ExtractFraction = float64(tim.extract) / float64(elapsed)
	}
	return res, nil
}

// DefaultBase returns the baseline folded-cascode design used by the
// Fig. 10 experiment.
func DefaultBase() perf.FoldedCascode {
	n, pt := mos.NTech(), mos.PTech()
	return perf.FoldedCascode{
		In:    mos.Device{Tech: n, W: 120, L: 0.7, Folds: 6},
		Tail:  mos.Device{Tech: n, W: 60, L: 1.4, Folds: 4},
		Src:   mos.Device{Tech: pt, W: 160, L: 1.4, Folds: 8},
		CasP:  mos.Device{Tech: pt, W: 120, L: 0.7, Folds: 6},
		CasN:  mos.Device{Tech: n, W: 60, L: 0.7, Folds: 4},
		Mir:   mos.Device{Tech: n, W: 80, L: 1.4, Folds: 4},
		ITail: 200e-6,
		VDD:   3.3,
		CL:    2e-12,
	}
}

// Fig10Spec is the performance specification of the Fig. 10
// experiment ("like dc-gain higher than 50 dB", plus bandwidth, phase
// margin and slew requirements tight enough that ignoring layout
// parasitics is fatal).
func Fig10Spec() perf.Spec {
	return perf.Spec{
		MinGainDB: 55,
		MinGBW:    150e6,
		MinPM:     60,
		MinSR:     50e6,
	}
}
