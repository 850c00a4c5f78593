package shapefn

import (
	"fmt"

	"repro/internal/bstar"
	"repro/internal/constraint"
	"repro/internal/geom"
)

// maxEnumSet bounds exhaustive enumeration of a basic module set:
// n!·Catalan(n) placements (times rotations) are enumerated for sets
// up to this size; larger sets are combined incrementally by shape
// addition. The paper's basic module sets are "a small number of
// modules, e.g., the transistors of a differential pair or a current
// mirror", so real sets stay below this bound.
const maxEnumSet = 6

// Placer runs the deterministic, hierarchically bounded enumeration of
// Section IV: enumerate all placements of each basic module set (the
// leaves of the hierarchy tree), store them as (enhanced) shape
// functions, and combine the functions bottom-up along the tree.
type Placer struct {
	// Enhanced selects enhanced shape functions (ESF) instead of
	// regular ones (RSF).
	Enhanced bool

	dims     func(string) (int, int, error)
	checkers []setChecker
}

// setChecker is one constraint validator with the module set it
// watches.
type setChecker struct {
	members map[string]bool
	check   func(geom.Placement) error
}

// NewPlacer builds a deterministic placer for a hierarchy tree whose
// device footprints come from dims.
func NewPlacer(tree *constraint.Node, dims func(string) (int, int, error), enhanced bool) (*Placer, error) {
	if tree == nil {
		return nil, fmt.Errorf("shapefn: nil hierarchy tree")
	}
	p := &Placer{Enhanced: enhanced, dims: dims}
	// Collect symmetry validators from the tree. Proximity is implied
	// by construction (shape addition keeps operands adjacent), and
	// module-level common centroid reduces to symmetry (see package
	// circuits).
	var walk func(n *constraint.Node)
	walk = func(n *constraint.Node) {
		if n.Kind == constraint.KindSymmetry && len(n.SymPairs)+len(n.SymSelfs) > 0 {
			g := constraint.SymmetryGroup{Name: n.Name, Vertical: true}
			g.Pairs = append(g.Pairs, n.SymPairs...)
			g.Selfs = append(g.Selfs, n.SymSelfs...)
			members := map[string]bool{}
			for _, m := range g.Members() {
				members[m] = true
			}
			p.checkers = append(p.checkers, setChecker{
				members: members,
				check:   g.Check,
			})
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	return p, nil
}

// checkerFor returns a Checker validating every constraint fully
// contained in placements that include the given modules (others are
// skipped: a fragment cannot violate a constraint it does not cover).
func (p *Placer) checkerFor() Checker {
	if len(p.checkers) == 0 {
		return nil
	}
	return func(pl geom.Placement) error {
		for _, sc := range p.checkers {
			covered := true
			for m := range sc.members {
				if _, ok := pl[m]; !ok {
					covered = false
					break
				}
			}
			if !covered {
				continue
			}
			if err := sc.check(pl); err != nil {
				return err
			}
		}
		return nil
	}
}

// EnumerateSet computes the shape function of one basic module set by
// exhaustive B*-tree (and rotation) enumeration, keeping only
// placements that satisfy the applicable constraints.
func (p *Placer) EnumerateSet(names []string) (Function, error) {
	n := len(names)
	w := make([]int, n)
	h := make([]int, n)
	for i, name := range names {
		var err error
		w[i], h[i], err = p.dims(name)
		if err != nil {
			return Function{}, err
		}
	}
	if n > maxEnumSet {
		return p.incrementalSet(names, w, h)
	}
	check := p.checkerFor()
	var shapes []Shape
	// Every rotation mask: basic sets enumerate module rotations.
	for mask := 0; mask < 1<<n; mask++ {
		ew := make([]int, n)
		eh := make([]int, n)
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				ew[i], eh[i] = h[i], w[i]
			} else {
				ew[i], eh[i] = w[i], h[i]
			}
		}
		bstar.EnumerateTrees(ew, eh, func(t *bstar.Tree) bool {
			root := toPointerTree(t, names, ew, eh)
			pl, tw, th := packTree(root)
			if check != nil && check(pl) != nil {
				return true
			}
			// Both function kinds keep the packed tree: it rebuilds
			// the set's placement, and enhanced additions graft onto
			// it.
			shapes = append(shapes, Shape{W: tw, H: th, tree: root})
			return true
		})
	}
	f := prune(shapes)
	if len(f.Shapes) == 0 {
		return Function{}, fmt.Errorf("shapefn: no constraint-satisfying placement for set %v", names)
	}
	return f, nil
}

// incrementalSet combines an oversized set one module at a time.
func (p *Placer) incrementalSet(names []string, w, h []int) (Function, error) {
	f := Leaf(names[0], w[0], h[0], true, p.Enhanced)
	for i := 1; i < len(names); i++ {
		g := Leaf(names[i], w[i], h[i], true, p.Enhanced)
		f = p.add(f, g)
	}
	if len(f.Shapes) == 0 {
		return Function{}, fmt.Errorf("shapefn: empty function for set %v", names)
	}
	return f, nil
}

// toPointerTree converts a dense bstar tree to the pointer form used
// by shape packing.
func toPointerTree(t *bstar.Tree, names []string, w, h []int) *tnode {
	var conv func(m int) *tnode
	conv = func(m int) *tnode {
		if m < 0 {
			return nil
		}
		return &tnode{
			name:  names[m],
			w:     w[m],
			h:     h[m],
			left:  conv(t.Left[m]),
			right: conv(t.Right[m]),
		}
	}
	return conv(t.Root)
}

// add combines two functions according to the placer mode.
func (p *Placer) add(f, g Function) Function {
	if p.Enhanced {
		return AddESF(f, g, p.checkerFor())
	}
	return AddRSF(f, g)
}

// Result of a deterministic placement.
type Result struct {
	Placement geom.Placement
	Function  Function // root shape function
	Shape     Shape    // chosen (minimum-area) shape
}

// Place runs the bottom-up combination over the hierarchy tree and
// returns the minimum-area placement.
func (p *Placer) Place(tree *constraint.Node) (*Result, error) {
	f, err := p.functionFor(tree)
	if err != nil {
		return nil, err
	}
	s, ok := f.MinArea()
	if !ok {
		return nil, fmt.Errorf("shapefn: empty root shape function")
	}
	pl := s.Placement()
	pl.Normalize()
	return &Result{Placement: pl, Function: f, Shape: s}, nil
}

// functionFor computes the shape function of a hierarchy subtree.
func (p *Placer) functionFor(n *constraint.Node) (Function, error) {
	// Leaf sub-circuit: one basic module set, enumerated exhaustively.
	if len(n.Children) == 0 {
		if len(n.Devices) == 0 {
			return Function{}, fmt.Errorf("shapefn: empty sub-circuit %q", n.Name)
		}
		return p.EnumerateSet(n.Devices)
	}
	// Inner node: combine child functions, then direct devices.
	var f Function
	first := true
	for _, c := range n.Children {
		cf, err := p.functionFor(c)
		if err != nil {
			return Function{}, err
		}
		if first {
			f, first = cf, false
		} else {
			f = p.add(f, cf)
		}
	}
	for _, d := range n.Devices {
		w, h, err := p.dims(d)
		if err != nil {
			return Function{}, err
		}
		lf := Leaf(d, w, h, true, p.Enhanced)
		if first {
			f, first = lf, false
		} else {
			f = p.add(f, lf)
		}
	}
	if len(f.Shapes) == 0 {
		return Function{}, fmt.Errorf("shapefn: empty function at node %q", n.Name)
	}
	return f, nil
}
