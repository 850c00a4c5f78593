package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/service"
	"repro/internal/wire"
)

// resultKey opens the result field of an encoded JobView. The view's
// id, state, hash and flags precede it, so everything from here on is
// the result itself plus the closing brace.
var resultKey = []byte(`,"result":`)

// resultSuffix returns the encoded result part of a JobView reply.
func resultSuffix(body []byte) ([]byte, bool) {
	i := bytes.Index(body, resultKey)
	if i < 0 {
		return nil, false
	}
	return body[i:], true
}

// checkHit checks a cache-hit reply cheaply enough to run between
// requests: status 200, state done, flagged as a hit, and a result
// byte-identical to the set-up solve's.
func checkHit(status int, body, ref []byte) string {
	if status != 200 {
		return fmt.Sprintf("status %d", status)
	}
	suffix, ok := resultSuffix(body)
	if !ok {
		return "no result"
	}
	head := body[:len(body)-len(suffix)]
	if !bytes.Contains(head, []byte(`"state":"done"`)) {
		return "not done"
	}
	if !bytes.Contains(head, []byte(`"cache_hit":true`)) {
		return "planned hit answered by a solve"
	}
	if !bytes.Equal(suffix, ref) {
		return "hit result differs from the set-up solve"
	}
	return ""
}

// decodeSolved decodes a solved (miss) reply and checks it in full.
func decodeSolved(status int, body []byte, prob *wire.Problem) (*service.JobView, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var v service.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if v.State != service.StateDone {
		return nil, fmt.Errorf("state %s (%s)", v.State, v.Error)
	}
	if v.CacheHit {
		return nil, fmt.Errorf("planned solve answered from the cache")
	}
	if v.Result == nil {
		return nil, fmt.Errorf("done without a result")
	}
	if err := verifyResult(prob, v.Result); err != nil {
		return nil, err
	}
	return &v, nil
}

// verifyResult rechecks a placement from its coordinates: legal and
// complete, every module at its requested dimensions (rotation
// allowed), no two modules overlapping, every symmetric pair mirrored
// about its group's axis, and a breakdown that sums to the cost.
func verifyResult(prob *wire.Problem, res *wire.Result) error {
	if !res.Legal || res.Cancelled {
		return fmt.Errorf("result not legal (legal=%v cancelled=%v)", res.Legal, res.Cancelled)
	}
	n := len(prob.Modules)
	if len(res.Placement) != n {
		return fmt.Errorf("placement has %d modules, want %d", len(res.Placement), n)
	}
	for i, m := range prob.Modules {
		p := res.Placement[i]
		if p.Name != m.Name {
			return fmt.Errorf("module %d is %q, want %q", i, p.Name, m.Name)
		}
		if !(p.W == m.W && p.H == m.H) && !(p.W == m.H && p.H == m.W) {
			return fmt.Errorf("module %s placed %dx%d, requested %dx%d", m.Name, p.W, p.H, m.W, m.H)
		}
		if p.X < 0 || p.Y < 0 {
			return fmt.Errorf("module %s at negative coordinates", m.Name)
		}
	}
	if err := checkOverlaps(res.Placement); err != nil {
		return err
	}
	for gi, g := range prob.Symmetry {
		if err := checkSymmetry(res.Placement, g); err != nil {
			return fmt.Errorf("symmetry group %d: %w", gi, err)
		}
	}
	if res.Breakdown == nil {
		return fmt.Errorf("no cost breakdown")
	}
	b := res.Breakdown
	sum := b.Area + b.HPWL + b.Outline + b.Proximity + b.Thermal + b.Overlap + b.Fragments
	if math.Abs(sum-res.Cost) > 1e-9*math.Max(1, math.Abs(res.Cost)) {
		return fmt.Errorf("breakdown sums to %v, cost is %v", sum, res.Cost)
	}
	return nil
}

// checkOverlaps sweeps the modules in x order; any two whose x spans
// intersect must have disjoint y spans.
func checkOverlaps(pl []wire.Placed) error {
	order := make([]int, len(pl))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return pl[order[i]].X < pl[order[j]].X })
	for k, i := range order {
		a := pl[i]
		for _, j := range order[k+1:] {
			b := pl[j]
			if b.X >= a.X+a.W {
				break
			}
			if a.Y < b.Y+b.H && b.Y < a.Y+a.H {
				return fmt.Errorf("modules %s and %s overlap", a.Name, b.Name)
			}
		}
	}
	return nil
}

// checkSymmetry checks one group in doubled coordinates (2x+w is a
// module's doubled centre): each pair shares a row and dimensions, the
// doubled centres of every pair sum to the same value, four times the
// axis, and every self-symmetric module is centred on that axis.
func checkSymmetry(pl []wire.Placed, g wire.SymGroup) error {
	axis4, set := 0, false
	want := func(v int) error {
		if !set {
			axis4, set = v, true
			return nil
		}
		if v != axis4 {
			return fmt.Errorf("axis mismatch (%d vs %d, in quarter units)", v, axis4)
		}
		return nil
	}
	for _, pr := range g.Pairs {
		a, b := pl[pr[0]], pl[pr[1]]
		if a.Y != b.Y || a.W != b.W || a.H != b.H {
			return fmt.Errorf("pair %s/%s not mirrored", a.Name, b.Name)
		}
		if err := want(2*a.X + a.W + 2*b.X + b.W); err != nil {
			return err
		}
	}
	for _, s := range g.Selfs {
		m := pl[s]
		if err := want(2 * (2*m.X + m.W)); err != nil {
			return err
		}
	}
	return nil
}
