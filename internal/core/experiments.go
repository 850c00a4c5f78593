package core

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/place"
	"repro/internal/seqpair"
	"repro/internal/shapefn"
)

// TableIRow is one line of the paper's Table I: ESF versus RSF on one
// circuit.
type TableIRow struct {
	Name        string
	Modules     int
	ESFUsage    float64 // bounding-box area / module area
	RSFUsage    float64
	ESFTime     time.Duration
	RSFTime     time.Duration
	Improvement float64 // (RSFUsage - ESFUsage) / RSFUsage
}

// RunTableI regenerates Table I over the named benchmarks (all six
// when names is empty).
func RunTableI(names []string) ([]TableIRow, error) {
	if len(names) == 0 {
		names = circuits.TableINames()
	}
	rows := make([]TableIRow, 0, len(names))
	for _, name := range names {
		bench, err := circuits.TableIBench(name)
		if err != nil {
			return nil, err
		}
		p, err := place.FromBench(bench)
		if err != nil {
			return nil, err
		}
		row := TableIRow{Name: name, Modules: p.N()}
		if row.ESFUsage, row.ESFTime, err = tableICell(p, bench.Tree, true); err != nil {
			return nil, fmt.Errorf("core: %s ESF: %v", name, err)
		}
		if row.RSFUsage, row.RSFTime, err = tableICell(p, bench.Tree, false); err != nil {
			return nil, fmt.Errorf("core: %s RSF: %v", name, err)
		}
		if row.RSFUsage > 0 {
			row.Improvement = (row.RSFUsage - row.ESFUsage) / row.RSFUsage
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// tableICell places a benchmark's modules deterministically under its
// authored tree and measures the area usage and wall-clock; an illegal
// placement is an error.
func tableICell(p *place.Problem, tree *constraint.Node, enhanced bool) (float64, time.Duration, error) {
	start := time.Now()
	res, err := shapefn.Place(context.TODO(), p, tree, enhanced)
	if err != nil {
		return 0, 0, err
	}
	if !res.Placement.Legal() {
		return 0, 0, fmt.Errorf("illegal placement")
	}
	return res.Placement.AreaUsage(), time.Since(start), nil
}

// ShapeCurve is one (w, h) staircase of a shape function, the data
// behind Fig. 8.
type ShapeCurve [][2]int

// RunFig8 computes the root ESF and RSF shape functions of a Table I
// benchmark (the paper plots lnamixbias) and returns their (w, h)
// staircases.
func RunFig8(name string) (esf, rsf ShapeCurve, err error) {
	bench, err := circuits.TableIBench(name)
	if err != nil {
		return nil, nil, err
	}
	p, err := place.FromBench(bench)
	if err != nil {
		return nil, nil, err
	}
	curve := func(enhanced bool) (ShapeCurve, error) {
		res, err := shapefn.Place(context.TODO(), p, bench.Tree, enhanced)
		if err != nil {
			return nil, err
		}
		out := make(ShapeCurve, 0, len(res.Function.Shapes))
		for _, s := range res.Function.Shapes {
			out = append(out, [2]int{s.W, s.H})
		}
		return out, nil
	}
	if esf, err = curve(true); err != nil {
		return nil, nil, err
	}
	if rsf, err = curve(false); err != nil {
		return nil, nil, err
	}
	return esf, rsf, nil
}

// LemmaReport quantifies the Section II Lemma for one instance.
type LemmaReport struct {
	N          int
	Groups     []seqpair.Group
	Total      *big.Int // (n!)² sequence-pairs
	Bound      *big.Int // Lemma upper bound on S-F codes
	Exact      int64    // exact S-F count by pruned enumeration (-1 if skipped)
	Reduction  float64  // 1 - Bound/Total
	Enumerated bool
}

// RunLemma computes the Lemma numbers; enumeration is performed when
// enumerate is set (practical for n ≤ 8).
func RunLemma(n int, groups []seqpair.Group, enumerate bool) (*LemmaReport, error) {
	if err := seqpair.ValidateGroups(n, groups); err != nil {
		return nil, err
	}
	r := &LemmaReport{
		N:      n,
		Groups: groups,
		Total:  seqpair.TotalSequencePairs(n),
		Bound:  seqpair.LemmaBound(n, groups),
		Exact:  -1,
	}
	tf, _ := new(big.Float).SetInt(r.Total).Float64()
	bf, _ := new(big.Float).SetInt(r.Bound).Float64()
	if tf > 0 {
		r.Reduction = 1 - bf/tf
	}
	if enumerate {
		r.Exact = seqpair.CountSFExact(n, groups)
		r.Enumerated = true
	}
	return r, nil
}

// PaperLemmaExample returns the paper's running example: n = 7 with
// symmetry group γ = {(C,D), (B,G), A, F} mapped to ids A=0..G=6.
func PaperLemmaExample() (int, []seqpair.Group) {
	return 7, []seqpair.Group{{Pairs: [][2]int{{2, 3}, {1, 6}}, Selfs: []int{0, 5}}}
}
