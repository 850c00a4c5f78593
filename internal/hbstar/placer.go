package hbstar

import (
	"fmt"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/bstar"
	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/geom"
)

// Perturb selects one of the forest's HB*-trees uniformly and applies
// one perturbation to it, exactly the paper's scheme ("one of the
// HB*-trees should be selected first, and then any perturbation
// operation for the B*-tree can be applied").
func (f *Forest) Perturb(rng *rand.Rand) {
	f.PerturbUndoable(rng, nil)
}

// ForestUndo records which tree of the forest one perturbation touched
// and that tree's prior state, so the move can be reverted exactly. It
// is reusable: the state buffers grow to the largest tree ever saved
// and then stop allocating.
type ForestUndo struct {
	node  *Node
	state bstar.TreeState
}

// Undo reverts the recorded perturbation.
func (u *ForestUndo) Undo() {
	if u == nil || u.node == nil {
		return
	}
	if u.node.island != nil {
		u.node.island.LoadState(&u.state)
		return
	}
	u.node.tree.LoadState(&u.state)
}

// PerturbUndoable is Perturb with exact-undo recording: when u is
// non-nil, the touched tree's prior state is saved into it first.
func (f *Forest) PerturbUndoable(rng *rand.Rand, u *ForestUndo) {
	if u != nil {
		u.node = nil
	}
	if len(f.all) == 0 {
		return
	}
	n := f.all[rng.Intn(len(f.all))]
	if u != nil {
		u.node = n
		if n.island != nil {
			n.island.SaveState(&u.state)
		} else {
			n.tree.SaveState(&u.state)
		}
	}
	if n.island != nil {
		n.island.Perturb(rng)
		return
	}
	if n.tree.N() > 1 {
		n.tree.Perturb(rng)
	} else if n.tree.N() == 1 && len(n.items) == 1 && n.items[0].dev != "" {
		n.tree.Rotate(0)
	}
}

// Problem is a hierarchical placement instance. Its objective is the
// composite cost.Model of internal/cost: area plus weighted HPWL, the
// proximity-fragments penalty, and optional fixed-outline and thermal
// terms, all evaluated incrementally over the modules each
// perturbation actually displaces.
type Problem struct {
	Bench *circuits.Bench
	// AreaWeight scales the bounding-box area term (0 = default 1).
	AreaWeight float64
	// WireWeight scales HPWL against area.
	WireWeight float64
	// ProximityPenalty is added per disconnected fragment of a
	// proximity sub-circuit (scaled by average module area).
	ProximityPenalty float64
	// OutlineW/OutlineH, when both positive, add a fixed-outline
	// penalty term (quadratic in the bounding box's excess).
	OutlineW, OutlineH int
	// OutlineWeight scales the fixed-outline penalty (0 = heuristic
	// default of max(1, module area / 100)).
	OutlineWeight float64
	// ThermalWeight scales the thermal-mismatch term over the
	// hierarchy's device-level symmetric pairs (0 = off).
	ThermalWeight float64
	// ThermalSigma is the thermal decay length (0 = thermal default).
	ThermalSigma float64
	// Power gives per-device dissipated power for the thermal term
	// (device name → power). Nil means the area-normalized default.
	Power map[string]float64
}

// Result of a hierarchical placement run.
type Result struct {
	Placement geom.Placement
	Cost      float64
	Stats     anneal.Stats
	// Violations lists remaining constraint violations (typically
	// proximity connectivity when the penalty could not remove them;
	// symmetry is satisfied by construction).
	Violations []error
	// Breakdown decomposes Cost per objective term (area, hpwl,
	// proximity-frag, outline, thermal), read from the winning
	// solution's model so the weighted values sum to Cost exactly.
	Breakdown []cost.TermValue
}

// forestRep adapts a Forest to the engine kernel. A perturbation
// touches exactly one of the forest's trees, so undo restores just
// that tree from a reusable buffer instead of cloning the whole forest
// per proposed move; the kernel's composite objective reevaluates only
// the modules the repack displaced (found by diffing the flattened
// packing against the model's coordinate cache). The module universe
// (objective) and the model are built lazily from the first feasible
// packing, so construction — including Neighbor clones — never pays a
// redundant full pack.
type forestRep struct {
	prob   *Problem
	forest *Forest
	obj    *objective
	ref    geom.Placement // last packing; the lazy model's reference
	u      ForestUndo
}

func newForestRep(p *Problem, f *Forest) *forestRep {
	return &forestRep{prob: p, forest: f}
}

// Perturb implements engine.Representation.
func (r *forestRep) Perturb(rng *rand.Rand) bool {
	r.forest.PerturbUndoable(rng, &r.u)
	return true
}

// Undo implements engine.Representation.
func (r *forestRep) Undo() { r.u.Undo() }

// Pack implements engine.Representation: the forest packs to a named
// placement, which is flattened onto the fixed module universe (built
// from the first feasible packing).
func (r *forestRep) Pack(c *engine.Coords) bool {
	pl, err := r.forest.Pack()
	if err != nil {
		return false
	}
	if r.obj == nil {
		r.obj = newObjective(pl)
	}
	if !r.obj.load(pl) {
		return false
	}
	r.ref = pl
	c.X, c.Y, c.W, c.H, c.Rot = r.obj.x, r.obj.y, r.obj.w, r.obj.h, nil
	return true
}

// newModel builds the composite model from the representation's last
// packing; the kernel calls it lazily right after the first feasible
// Pack.
func (r *forestRep) newModel() *cost.Model {
	return r.obj.newModel(r.prob, r.ref)
}

// Snapshot implements engine.Representation.
func (r *forestRep) Snapshot() any { return r.forest.Clone() }

// Restore implements engine.Representation. The snapshot is cloned so
// the engine may keep and re-restore it.
func (r *forestRep) Restore(snapshot any) {
	r.forest = snapshot.(*Forest).Clone()
	r.u.node = nil // pending undo would target the replaced forest
}

// Clone implements engine.Representation (universe and model are
// rebuilt lazily from the clone's own first packing).
func (r *forestRep) Clone() engine.Representation {
	return newForestRep(r.prob, r.forest.Clone())
}

// Placement implements engine.Representation.
func (r *forestRep) Placement() (geom.Placement, error) { return r.forest.Pack() }

// newSolution wraps a forest in the engine kernel over the
// hierarchical composite objective.
func newSolution(p *Problem, f *Forest) *engine.Solution {
	return engine.New(newForestRep(p, f), engine.Config{
		NewModel: func(rep engine.Representation) *cost.Model {
			return rep.(*forestRep).newModel()
		},
	})
}

// Place runs the HB*-tree hierarchical placer on a benchmark.
func Place(p *Problem, opt anneal.Options) (*Result, error) {
	if p.Bench == nil || p.Bench.Tree == nil {
		return nil, fmt.Errorf("hbstar: benchmark with hierarchy tree required")
	}
	if p.ProximityPenalty == 0 {
		p.ProximityPenalty = 2
	}
	dims := func(name string) (int, int, error) {
		d := p.Bench.Circuit.Device(name)
		if d == nil {
			return 0, 0, fmt.Errorf("hbstar: unknown device %q", name)
		}
		if d.FW <= 0 || d.FH <= 0 {
			return 0, 0, fmt.Errorf("hbstar: device %q has no footprint", name)
		}
		return d.FW, d.FH, nil
	}
	forest, err := Build(p.Bench.Tree, dims)
	if err != nil {
		return nil, err
	}
	newSol := func(seed int64) *engine.Solution {
		s := newSolution(p, forest.Clone())
		_ = seed // the canonical initial forest ignores the seed
		return s
	}
	sol, stats := engine.Run(newSol, opt)
	pl, err := sol.Placement()
	if err != nil {
		return nil, err
	}
	pl.Normalize()
	res := &Result{Placement: pl, Cost: sol.Cost(), Stats: stats, Breakdown: sol.Breakdown()}
	res.Violations = treeViolations(p.Bench.Tree, pl)
	return res, nil
}

// treeViolations collects all constraint violations of the hierarchy
// tree against a placement.
func treeViolations(root *constraint.Node, pl geom.Placement) []error {
	var out []error
	var walk func(n *constraint.Node)
	walk = func(n *constraint.Node) {
		clone := *n
		clone.Children = nil // check this node's own constraint only
		switch n.Kind {
		case constraint.KindSymmetry, constraint.KindCommonCentroid:
			if err := clone.Check(pl); err != nil {
				out = append(out, err)
			}
		case constraint.KindProximity:
			members := append([]string{}, n.Devices...)
			for _, c := range n.Children {
				members = append(members, c.Leaves()...)
			}
			pr := constraint.Proximity{Name: n.Name, Members: members}
			if err := pr.Check(pl); err != nil {
				out = append(out, err)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}
