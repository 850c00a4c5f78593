package cost

import "repro/internal/thermal"

// ---------------------------------------------------------------------------
// Area

// AreaTerm is the bounding-box area of the placement. All of its state
// is the model-maintained bounding box, so updates and undo are free.
type AreaTerm struct {
	c *Coords
}

// NewArea returns the bounding-box area term.
func NewArea() *AreaTerm { return &AreaTerm{} }

// Name implements Term.
func (t *AreaTerm) Name() string { return "area" }

// Eval implements Term.
func (t *AreaTerm) Eval(c *Coords) { t.c = c }

// Update implements Term.
func (t *AreaTerm) Update(c *Coords, moved []int) {}

// Undo implements Term.
func (t *AreaTerm) Undo() {}

// Value implements Term.
func (t *AreaTerm) Value() float64 {
	return float64(t.c.BBoxW()) * float64(t.c.BBoxH())
}

// ---------------------------------------------------------------------------
// Fixed outline

// FixedOutlineTerm penalizes placements whose bounding box exceeds a
// target W × H outline, the fixed-outline floorplanning objective of
// Adya/Markov: the penalty is the squared excess in each dimension, so
// the gradient toward the outline steepens with the violation and
// vanishes inside it.
type FixedOutlineTerm struct {
	W, H int
	c    *Coords
}

// NewFixedOutline returns a fixed-outline penalty term for a target
// w × h outline.
func NewFixedOutline(w, h int) *FixedOutlineTerm {
	return &FixedOutlineTerm{W: w, H: h}
}

// Name implements Term.
func (t *FixedOutlineTerm) Name() string { return "outline" }

// Eval implements Term.
func (t *FixedOutlineTerm) Eval(c *Coords) { t.c = c }

// Update implements Term.
func (t *FixedOutlineTerm) Update(c *Coords, moved []int) {}

// Undo implements Term.
func (t *FixedOutlineTerm) Undo() {}

// Excess returns how far the current bounding box exceeds the outline
// in each dimension (0 when it fits).
func (t *FixedOutlineTerm) Excess() (int, int) {
	return max(0, t.c.BBoxW()-t.W), max(0, t.c.BBoxH()-t.H)
}

// Value implements Term.
func (t *FixedOutlineTerm) Value() float64 {
	ex, ey := t.Excess()
	return float64(ex)*float64(ex) + float64(ey)*float64(ey)
}

// ---------------------------------------------------------------------------
// Wirelength (HPWL) and proximity

// WirelengthTerm is total half-perimeter wirelength over a set of nets
// with per-net cached bounding boxes: an Update recomputes only the
// nets that touch a moved module (found through a module→nets index),
// keeping the exact integer total incrementally. The same machinery
// serves proximity groups — "keep these modules together" is the
// half-perimeter of the group's center bounding box.
//
// Boxes are kept over doubled module centers and each net contributes
// (dx+dy)/2, matching geom.HPWL's integer convention exactly.
type WirelengthTerm struct {
	name string
	nets [][]int

	// Module→nets index in CSR form, built on first Eval.
	offs []int32
	idx  []int32

	boxes [][4]int // per-net minX, maxX, minY, maxY over doubled centers
	vals  []int    // per-net half-perimeter
	total int64

	mark []int // net → generation of last visit
	gen  int

	// Undo journal: nets touched by the last Update.
	jNets  []int
	jBoxes [][4]int
	jVals  []int
}

// NewHPWL returns the half-perimeter wirelength term over signal nets
// (module-id sets).
func NewHPWL(nets [][]int) *WirelengthTerm {
	return &WirelengthTerm{name: "hpwl", nets: nets}
}

// NewProximity returns a proximity term over module groups: each group
// contributes the half-perimeter of its center bounding box, pulling
// group members together.
func NewProximity(groups [][]int) *WirelengthTerm {
	return &WirelengthTerm{name: "proximity", nets: groups}
}

// Name implements Term.
func (t *WirelengthTerm) Name() string { return t.name }

// Eval implements Term.
func (t *WirelengthTerm) Eval(c *Coords) {
	if t.offs == nil {
		t.buildIndex(c.N())
	}
	t.total = 0
	for ni := range t.nets {
		t.boxes[ni], t.vals[ni] = t.netBox(c, ni)
		t.total += int64(t.vals[ni])
	}
}

// Update implements Term.
func (t *WirelengthTerm) Update(c *Coords, moved []int) {
	t.gen++
	t.jNets = t.jNets[:0]
	t.jBoxes = t.jBoxes[:0]
	t.jVals = t.jVals[:0]
	for _, m := range moved {
		for _, ni32 := range t.idx[t.offs[m]:t.offs[m+1]] {
			ni := int(ni32)
			if t.mark[ni] == t.gen {
				continue
			}
			t.mark[ni] = t.gen
			t.jNets = append(t.jNets, ni)
			t.jBoxes = append(t.jBoxes, t.boxes[ni])
			t.jVals = append(t.jVals, t.vals[ni])
			box, val := t.netBox(c, ni)
			t.total += int64(val - t.vals[ni])
			t.boxes[ni], t.vals[ni] = box, val
		}
	}
}

// Undo implements Term.
func (t *WirelengthTerm) Undo() {
	for k := len(t.jNets) - 1; k >= 0; k-- {
		ni := t.jNets[k]
		t.total += int64(t.jVals[k] - t.vals[ni])
		t.boxes[ni], t.vals[ni] = t.jBoxes[k], t.jVals[k]
	}
	t.jNets = t.jNets[:0]
}

// Value implements Term.
func (t *WirelengthTerm) Value() float64 { return float64(t.total) }

// Total returns the exact integer wirelength.
func (t *WirelengthTerm) Total() int64 { return t.total }

// netBox computes one net's doubled-center bounding box and
// half-perimeter.
func (t *WirelengthTerm) netBox(c *Coords, ni int) ([4]int, int) {
	const big = 1 << 62
	minX, maxX, minY, maxY := big, -big, big, -big
	for _, m := range t.nets[ni] {
		cx, cy := 2*c.X[m]+c.W[m], 2*c.Y[m]+c.H[m]
		minX = min(minX, cx)
		maxX = max(maxX, cx)
		minY = min(minY, cy)
		maxY = max(maxY, cy)
	}
	if len(t.nets[ni]) == 0 {
		return [4]int{}, 0
	}
	return [4]int{minX, maxX, minY, maxY}, (maxX - minX + maxY - minY) / 2
}

// buildIndex builds the module→nets CSR index and per-net caches.
func (t *WirelengthTerm) buildIndex(n int) {
	t.offs = make([]int32, n+1)
	for _, net := range t.nets {
		for _, m := range net {
			t.offs[m+1]++
		}
	}
	for i := 0; i < n; i++ {
		t.offs[i+1] += t.offs[i]
	}
	t.idx = make([]int32, t.offs[n])
	fill := make([]int32, n)
	for ni, net := range t.nets {
		for _, m := range net {
			t.idx[t.offs[m]+fill[m]] = int32(ni)
			fill[m]++
		}
	}
	t.boxes = make([][4]int, len(t.nets))
	t.vals = make([]int, len(t.nets))
	t.mark = make([]int, len(t.nets))
}

// ---------------------------------------------------------------------------
// Thermal mismatch

// ThermalTerm is the temperature-difference mismatch over symmetry
// pairs under the gradient of internal/thermal: powered modules act as
// heat sources at their centers (superposed on any fixed ambient
// sources of the base field), and each pair contributes the absolute
// temperature difference seen at its two members' centers —
// thermal.Field.PairMismatch expressed over model coordinates. A move
// of a non-source module redoes only that module's pairs; a move of a
// source shifts the whole field, so every pair is redone.
type ThermalTerm struct {
	pairs [][2]int
	power []float64 // per module; > 0 marks a heat source

	field  thermal.Field // base (ambient) sources + one per powered module
	nbase  int           // ambient source count; module sources follow
	srcIDs []int         // module id of field.Sources[nbase+k]
	srcOf  []int         // module → source index, -1 for unpowered

	pairVals []float64
	pairsOf  [][]int32 // module → pair indices

	// Undo journal: full per-pair snapshot (pairs are few) plus the
	// moved source positions.
	jPairVals []float64
	jSrc      []thermal.Source
	jValid    bool
}

// NewThermal returns a thermal-mismatch term. base supplies the decay
// length and any fixed ambient sources (it may be nil for defaults);
// power gives each module's dissipated power (nil or all-zero means
// the field has only ambient sources); pairs are the symmetry pairs
// whose mismatch is summed.
func NewThermal(base *thermal.Field, power []float64, pairs [][2]int) *ThermalTerm {
	t := &ThermalTerm{pairs: pairs, power: power}
	if base != nil {
		t.field.Sigma = base.Sigma
		t.field.Sources = append(t.field.Sources, base.Sources...)
	}
	t.nbase = len(t.field.Sources)
	return t
}

// Name implements Term.
func (t *ThermalTerm) Name() string { return "thermal" }

// Eval implements Term.
func (t *ThermalTerm) Eval(c *Coords) {
	if t.srcOf == nil {
		t.buildIndex(c.N())
	}
	for k, m := range t.srcIDs {
		t.field.Sources[t.nbase+k] = t.moduleSource(c, m)
	}
	for pi := range t.pairs {
		t.pairVals[pi] = t.mismatch(c, pi)
	}
	t.jValid = false
}

// Update implements Term.
func (t *ThermalTerm) Update(c *Coords, moved []int) {
	t.jPairVals = append(t.jPairVals[:0], t.pairVals...)
	t.jSrc = append(t.jSrc[:0], t.field.Sources...)
	t.jValid = true

	sourceMoved := false
	for _, m := range moved {
		if t.srcOf[m] >= 0 {
			t.field.Sources[t.srcOf[m]] = t.moduleSource(c, m)
			sourceMoved = true
		}
	}
	if sourceMoved {
		// The field itself changed: every pair sees new temperatures.
		for pi := range t.pairs {
			t.pairVals[pi] = t.mismatch(c, pi)
		}
		return
	}
	for _, m := range moved {
		for _, pi := range t.pairsOf[m] {
			t.pairVals[pi] = t.mismatch(c, int(pi))
		}
	}
}

// Undo implements Term.
func (t *ThermalTerm) Undo() {
	if !t.jValid {
		return
	}
	copy(t.pairVals, t.jPairVals)
	copy(t.field.Sources, t.jSrc)
	t.jValid = false
}

// Value implements Term. The sum runs in pair order, so incremental
// and from-scratch states yield bit-identical values.
func (t *ThermalTerm) Value() float64 {
	v := 0.0
	for _, pv := range t.pairVals {
		v += pv
	}
	return v
}

func (t *ThermalTerm) moduleSource(c *Coords, m int) thermal.Source {
	return thermal.Source{
		X:     float64(2*c.X[m]+c.W[m]) / 2,
		Y:     float64(2*c.Y[m]+c.H[m]) / 2,
		Power: t.power[m],
	}
}

func (t *ThermalTerm) mismatch(c *Coords, pi int) float64 {
	a, b := t.pairs[pi][0], t.pairs[pi][1]
	return t.field.MismatchAt(
		float64(2*c.X[a]+c.W[a])/2, float64(2*c.Y[a]+c.H[a])/2,
		float64(2*c.X[b]+c.W[b])/2, float64(2*c.Y[b]+c.H[b])/2,
	)
}

func (t *ThermalTerm) buildIndex(n int) {
	t.srcOf = make([]int, n)
	for i := range t.srcOf {
		t.srcOf[i] = -1
	}
	for m := 0; m < n && m < len(t.power); m++ {
		if t.power[m] > 0 {
			t.srcOf[m] = t.nbase + len(t.srcIDs)
			t.srcIDs = append(t.srcIDs, m)
			t.field.Sources = append(t.field.Sources, thermal.Source{Power: t.power[m]})
		}
	}
	t.pairsOf = make([][]int32, n)
	for pi, pr := range t.pairs {
		t.pairsOf[pr[0]] = append(t.pairsOf[pr[0]], int32(pi))
		if pr[1] != pr[0] {
			t.pairsOf[pr[1]] = append(t.pairsOf[pr[1]], int32(pi))
		}
	}
	t.pairVals = make([]float64, len(t.pairs))
}
