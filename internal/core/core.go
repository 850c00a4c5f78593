// Package core holds the paper-experiment drivers: the code that
// regenerates each table and figure of the evaluation. cmd/table1,
// cmd/fig8 and cmd/fig10 run them and print the results.
//
//   - RunLemma / PaperLemmaExample — Section II's Lemma on the number
//     of symmetric-feasible sequence-pair codes.
//   - RunTableI / RunFig8 — Section IV's deterministic hierarchically
//     bounded enumeration with enhanced versus regular shape
//     functions, through PlaceDeterministic.
//   - RunFig10 — Section V's layout-aware sizing flow.
//
// The stochastic placers (Sections II and III and the baselines) are
// not driven from here: every annealing solve goes through the
// registry behind placer.Solve.
package core

import (
	"fmt"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/shapefn"
	"repro/internal/sizing"
)

// PlaceDeterministic runs the Section IV placer on a benchmark, with
// enhanced shape functions (ESF) when enhanced is set and regular ones
// (RSF) otherwise. The enumeration checks no context: it runs to
// completion, which is why it is not a placer registry engine.
func PlaceDeterministic(b *circuits.Bench, enhanced bool) (*shapefn.Result, error) {
	dims := func(name string) (int, int, error) {
		d := b.Circuit.Device(name)
		if d == nil {
			return 0, 0, fmt.Errorf("core: unknown device %q", name)
		}
		if d.FW <= 0 || d.FH <= 0 {
			return 0, 0, fmt.Errorf("core: device %q has no footprint", name)
		}
		return d.FW, d.FH, nil
	}
	p, err := shapefn.NewPlacer(b.Tree, dims, enhanced)
	if err != nil {
		return nil, err
	}
	return p.Place(b.Tree)
}

// Fig10Result bundles the two sizing runs of the Fig. 10 experiment.
type Fig10Result struct {
	Nominal, Aware *sizing.Result
}

// RunFig10 executes the layout-aware sizing experiment: a nominal
// (schematic-only) sizing and a layout-aware sizing of the same
// folded-cascode OTA against the same specification.
func RunFig10(opt anneal.Options) (*Fig10Result, error) {
	nominal, err := sizing.Run(sizing.Problem{
		Spec: sizing.Fig10Spec(),
		Mode: sizing.Nominal,
		Base: sizing.DefaultBase(),
	}, opt)
	if err != nil {
		return nil, err
	}
	aware, err := sizing.Run(sizing.Problem{
		Spec:      sizing.Fig10Spec(),
		Mode:      sizing.LayoutAware,
		MaxAspect: 1.3,
		Base:      sizing.DefaultBase(),
	}, opt)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Nominal: nominal, Aware: aware}, nil
}
