// Package place provides the device-level placers compared in the
// paper: the absolute-coordinate simulated-annealing baseline in the
// tradition of Jepsen/Gellat [11] (explores infeasible overlapping
// configurations), the topological sequence-pair placer restricted to
// symmetric-feasible codes (Section II, [13]), a B*-tree placer, and a
// slicing-tree placer (normalized Polish expressions) representing the
// slicing layout model the paper says degrades density for
// heterogeneous analog cells.
//
// All placers optimize the same composite cost — bounding-box area
// plus weighted half-perimeter wirelength — over the same Problem, so
// the representation ablations in the root package's bench_test.go
// (BenchmarkSlicingVsNonslicing, BenchmarkAbsoluteVsTopological,
// BenchmarkSFMovesVsRejection) compare like for like.
package place

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/seqpair"
	"repro/internal/thermal"
)

// Problem is one placement instance over modules 0..n-1. The objective
// every placer optimizes is the composite cost.Model the problem
// builds in NewModel: bounding-box area plus weighted HPWL by default,
// with optional fixed-outline, proximity and thermal-mismatch terms.
type Problem struct {
	Names []string
	W, H  []int
	// Groups are symmetry groups over module ids (vertical axes).
	Groups []seqpair.Group
	// Nets lists signal nets as module-id sets for wirelength.
	Nets [][]int
	// WireWeight scales HPWL against bounding-box area in the cost.
	// Zero means area-only.
	WireWeight float64
	// AreaWeight scales the bounding-box area term. Zero means the
	// default weight of 1 (the zero Problem keeps the historical
	// area + WireWeight·HPWL objective).
	AreaWeight float64
	// OutlineW/OutlineH, when both positive, add a fixed-outline term:
	// a quadratic penalty on the bounding box exceeding the target
	// outline (Adya/Markov fixed-outline floorplanning).
	OutlineW, OutlineH int
	// OutlineWeight scales the fixed-outline penalty. Zero selects a
	// heuristic weight of max(1, ModuleArea/100), strong enough that a
	// few-unit violation rivals the area term.
	OutlineWeight float64
	// ProxGroups lists proximity groups as module-id sets: each
	// contributes the half-perimeter of its center bounding box,
	// pulling members together. FromBench fills them from the
	// hierarchy's proximity nodes; they only enter the cost when
	// ProxWeight > 0.
	ProxGroups [][]int
	// ProxWeight scales the proximity term (0 = off).
	ProxWeight float64
	// ThermalWeight scales the thermal-mismatch term over the symmetry
	// groups' pairs (0 = off). Powers come from Power, or default to
	// each module's area normalized by the largest module.
	ThermalWeight float64
	// ThermalSigma is the thermal decay length (0 = thermal default).
	ThermalSigma float64
	// Power gives per-module dissipated power for the thermal term.
	Power []float64
	// FullEval forces every move to reevaluate the whole objective
	// from scratch instead of incrementally — the pre-refactor
	// behavior, kept for benchmarking the incremental engine and for
	// verification.
	FullEval bool
}

// N returns the module count.
func (p *Problem) N() int { return len(p.Names) }

// Validate checks the problem's internal consistency.
func (p *Problem) Validate() error {
	n := p.N()
	if len(p.W) != n || len(p.H) != n {
		return fmt.Errorf("place: dims length mismatch")
	}
	for i := 0; i < n; i++ {
		if p.W[i] <= 0 || p.H[i] <= 0 {
			return fmt.Errorf("place: module %d has non-positive size", i)
		}
	}
	if err := seqpair.ValidateGroups(n, p.Groups); err != nil {
		return err
	}
	for _, net := range p.Nets {
		for _, m := range net {
			if m < 0 || m >= n {
				return fmt.Errorf("place: net references module %d out of range", m)
			}
		}
	}
	return nil
}

// Dims returns a footprint lookup by module name, for the
// hierarchical placers: they read a name wherever a hierarchy tree
// spells one, and the size by id.
func (p *Problem) Dims() func(name string) (w, h int, err error) {
	id := make(map[string]int, p.N())
	for i, name := range p.Names {
		id[name] = i
	}
	return func(name string) (int, int, error) {
		i, ok := id[name]
		if !ok {
			return 0, 0, fmt.Errorf("place: unknown module %q", name)
		}
		return p.W[i], p.H[i], nil
	}
}

// ModuleArea returns the sum of module areas.
func (p *Problem) ModuleArea() int64 {
	var a int64
	for i := range p.W {
		a += int64(p.W[i]) * int64(p.H[i])
	}
	return a
}

// NewModel builds the problem's composite objective: one cost.Model
// with the terms the problem's weights enable. Every solution owns its
// own model (models hold per-search incremental caches, exactly like
// packing workspaces), so placers call this once per solution.
func (p *Problem) NewModel() *cost.Model {
	m := cost.NewModel(p.N())
	aw := p.AreaWeight
	if aw == 0 {
		aw = 1
	}
	m.Add(aw, cost.NewArea())
	m.Add(p.WireWeight, cost.NewHPWL(p.Nets))
	if p.OutlineW > 0 && p.OutlineH > 0 {
		ow := p.OutlineWeight
		if ow == 0 {
			ow = cost.DefaultOutlineWeight(p.ModuleArea())
		}
		m.Add(ow, cost.NewFixedOutline(p.OutlineW, p.OutlineH))
	}
	if p.ProxWeight > 0 && len(p.ProxGroups) > 0 {
		m.Add(p.ProxWeight, cost.NewProximity(p.ProxGroups))
	}
	if p.ThermalWeight > 0 {
		pairs := p.SymPairs()
		if len(pairs) > 0 {
			m.Add(p.ThermalWeight, cost.NewThermal(
				&thermal.Field{Sigma: p.ThermalSigma}, p.powers(), pairs))
		}
	}
	return m
}

// SymPairs returns all symmetric pairs over all symmetry groups.
func (p *Problem) SymPairs() [][2]int {
	var pairs [][2]int
	for _, g := range p.Groups {
		pairs = append(pairs, g.Pairs...)
	}
	return pairs
}

// powers returns the thermal source powers: Power if set, otherwise
// the shared area-normalized default.
func (p *Problem) powers() []float64 {
	if p.Power != nil {
		return p.Power
	}
	areas := make([]int64, p.N())
	for i := range areas {
		areas[i] = int64(p.W[i]) * int64(p.H[i])
	}
	return cost.AreaNormalizedPowers(areas)
}

// Cost evaluates a named placement against the full composite
// objective through a fresh model, and breaks the value down per term.
// Placements missing modules are heavily penalized (+Inf, no
// breakdown). It is the reference entry point for final results and
// validation, not the hot path: searching placers evaluate
// incrementally through their own model.
func (p *Problem) Cost(pl geom.Placement) (float64, []cost.TermValue) {
	if len(pl) < p.N() {
		return math.Inf(1), nil
	}
	n := p.N()
	x := make([]int, n)
	y := make([]int, n)
	w := make([]int, n)
	h := make([]int, n)
	for i, name := range p.Names {
		r, ok := pl[name]
		if !ok {
			return math.Inf(1), nil
		}
		x[i], y[i], w[i], h[i] = r.X, r.Y, r.W, r.H
	}
	m := p.NewModel()
	c := m.Eval(x, y, w, h, nil)
	return c, m.Breakdown()
}

// CostCoords evaluates the composite objective directly from
// coordinate slices, with module i occupying (x[i], y[i], w[i], h[i]),
// dimensions swapped where rot is set (rot may be nil). Like Cost it
// builds a fresh model per call and exists as the from-scratch
// reference; the annealing inner loop runs on each solution's own
// incrementally-updated model instead.
func (p *Problem) CostCoords(x, y, w, h []int, rot []bool) float64 {
	return p.NewModel().Eval(x, y, w, h, rot)
}

// ConstraintSet converts the problem's symmetry groups to named
// geometric constraints for validation.
func (p *Problem) ConstraintSet() *constraint.Set {
	s := &constraint.Set{}
	for gi, g := range p.Groups {
		cg := constraint.SymmetryGroup{
			Name:     fmt.Sprintf("group%d", gi),
			Vertical: true,
		}
		for _, pr := range g.Pairs {
			cg.Pairs = append(cg.Pairs, [2]string{p.Names[pr[0]], p.Names[pr[1]]})
		}
		for _, s := range g.Selfs {
			cg.Selfs = append(cg.Selfs, p.Names[s])
		}
		s.Symmetry = append(s.Symmetry, cg)
	}
	return s
}

// FromBench converts a benchmark circuit into a flat placement
// problem: device footprints become modules, every symmetry node of
// the hierarchy tree (device-level pairs and selfs) becomes a symmetry
// group, and the bench's signal nets become wirelength nets, in
// sorted net-name order.
func FromBench(b *circuits.Bench) (*Problem, error) {
	names, w, h := b.Modules()
	id := map[string]int{}
	for i, n := range names {
		id[n] = i
	}
	p := &Problem{Names: names, W: w, H: h, WireWeight: 1}

	if b.Tree != nil {
		for pairs, selfs := range b.Tree.SymmetryGroups(id) {
			p.Groups = append(p.Groups, seqpair.Group{Pairs: pairs, Selfs: selfs})
		}
		// Proximity groups enter the cost only when the caller sets
		// ProxWeight.
		for _, members := range b.Tree.ProximityGroups() {
			var grp []int
			for _, d := range members {
				if m, ok := id[d]; ok {
					grp = append(grp, m)
				}
			}
			if len(grp) >= 2 {
				p.ProxGroups = append(p.ProxGroups, grp)
			}
		}
	}
	netNames := make([]string, 0, len(b.Nets))
	for name := range b.Nets {
		netNames = append(netNames, name)
	}
	sort.Strings(netNames) // map order would differ per call
	for _, name := range netNames {
		var net []int
		for _, d := range b.Nets[name] {
			if m, ok := id[d]; ok {
				net = append(net, m)
			}
		}
		if len(net) >= 2 {
			p.Nets = append(p.Nets, net)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// BuildPlacement assembles a named placement from coordinates.
func (p *Problem) BuildPlacement(x, y []int, rot []bool) geom.Placement {
	pl := geom.Placement{}
	for i := 0; i < p.N(); i++ {
		w, h := p.W[i], p.H[i]
		if rot != nil && rot[i] {
			w, h = h, w
		}
		pl[p.Names[i]] = geom.NewRect(x[i], y[i], w, h)
	}
	return pl
}
