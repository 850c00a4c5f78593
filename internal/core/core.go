// Package core holds the paper-experiment drivers: the code that
// regenerates each table and figure of the evaluation. cmd/table1,
// cmd/fig8 and cmd/fig10 run them and print the results.
//
//   - RunLemma / PaperLemmaExample — Section II's Lemma on the number
//     of symmetric-feasible sequence-pair codes.
//   - RunTableI / RunFig8 — Section IV's deterministic hierarchically
//     bounded enumeration with enhanced versus regular shape
//     functions, through shapefn.Place on each benchmark's flat view
//     (place.FromBench) under its authored tree.
//   - RunFig10 — Section V's layout-aware sizing flow.
//
// Every placement method, esf and rsf included, is a registry engine
// behind placer.Solve. Table I and Fig. 8 still call shapefn.Place
// directly, with the authored trees: placer.Solve normalizes the
// hierarchy (children sorted by name), and shape-function results
// depend on the order shapes are combined in, so through the registry
// the figures would change.
package core

import (
	"repro/internal/anneal"
	"repro/internal/sizing"
)

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
