package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/place"
	"repro/internal/seqpair"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// replayer calls each layer's public functions on a workload's own
// instances, every call in its own span. Replays run after the traced
// window, so they never share the machine with the load.
type replayer struct {
	b   *bench
	tr  *tracer
	req int64 // replay ids count down from -1, apart from request ids
	// replayed-solve totals
	annealMoves, annealAccepted int
	solveTime                   time.Duration
	// accept is each replayed instance's acceptance ratio.
	accept map[*instance]float64
	// seqpair/cost replay totals
	perturb, pack, update   time.Duration
	replayMoves, infeasible int
}

func (rp *replayer) nextID() int64 {
	rp.req--
	return rp.req
}

// timed runs fn in a span of the replay req.
func (rp *replayer) timed(req int64, name string, fn func()) {
	start := time.Now()
	fn()
	rp.tr.put(span{Req: req, Name: name, Start: start, End: time.Now()})
}

// resultOf decodes the result part of an instance's hit reply.
func resultOf(inst *instance) (*wire.Result, error) {
	raw := inst.ref[len(resultKey):]
	var res wire.Result
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("decoding reference result: %w", err)
	}
	return &res, nil
}

// wireAndService replays the serve path's layers per instance: decode,
// hash and reply encoding (wire), then a submit the daemon answers
// from its cache (service, with the store calls it makes as children).
func (rp *replayer) wireAndService(insts []*instance) error {
	for _, inst := range insts {
		res, err := resultOf(inst)
		if err != nil {
			return err
		}
		id := rp.nextID()
		var req *wire.Request
		var derr, herr error
		var hash string
		rp.timed(id, "wire.decode", func() { req, derr = wire.DecodeRequest(inst.body) })
		if derr != nil {
			return fmt.Errorf("replayed decode: %w", derr)
		}
		rp.timed(id, "wire.hash", func() { hash, herr = req.HashNormalized() })
		if herr != nil || hash != inst.hash {
			return fmt.Errorf("replayed hash %s differs from the daemon's %s (%v)", hash, inst.hash, herr)
		}
		view := service.JobView{ID: "job-0", State: service.StateDone, Hash: hash, CacheHit: true, Result: res}
		var eerr error
		rp.timed(id, "wire.encode", func() { _, eerr = json.Marshal(view) })
		if eerr != nil {
			return fmt.Errorf("replayed encode: %w", eerr)
		}
		start := time.Now()
		job, err := rp.b.d.sched.SubmitCtx(context.Background(), req)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("replayed submit: %w", err)
		}
		rp.tr.put(span{Req: rp.nextID(), Name: "service.submit", Start: start, End: end, Hash: hash, Job: job.ID})
		if !job.CacheHit() {
			return fmt.Errorf("replayed submit of a solved instance was not a cache hit")
		}
	}
	return nil
}

// solves replays whole solves through service.Solve, timing every
// annealing stage from the progress stream. Each must reproduce the
// daemon's cost for the instance.
func (rp *replayer) solves(insts []*instance) error {
	for _, inst := range insts {
		req, err := wire.DecodeRequest(inst.body)
		if err != nil {
			return err
		}
		type tick struct {
			at              time.Time
			moves, accepted int
		}
		var ticks []tick
		id := rp.nextID()
		root := rp.tr.newID()
		start := time.Now()
		res, err := service.Solve(context.Background(), req, func(p placer.Progress) {
			ticks = append(ticks, tick{time.Now(), p.Moves, p.Accepted})
		})
		end := time.Now()
		if err != nil {
			return fmt.Errorf("replayed solve: %w", err)
		}
		if res.Cost != inst.cost {
			return fmt.Errorf("replayed solve cost %v differs from the daemon's %v", res.Cost, inst.cost)
		}
		rp.tr.put(span{ID: root, Req: id, Name: "placer.solve", Start: start, End: end, Hash: inst.hash})
		prev := start
		for i, t := range ticks {
			name := "anneal.stage"
			if i == 0 {
				name = "anneal.first_stage"
			}
			rp.tr.put(span{Req: id, Parent: root, Name: name, Start: prev, End: t.at})
			prev = t.at
		}
		if len(ticks) > 0 {
			last := ticks[len(ticks)-1]
			rp.accept[inst] = ratio(int64(last.accepted), int64(last.moves))
			rp.annealMoves += last.moves
			rp.annealAccepted += last.accepted
		}
		rp.solveTime += end.Sub(start)
	}
	return nil
}

// flatProblem builds the flat placement problem the seqpair engine
// solves for a wire problem.
func flatProblem(wp *wire.Problem) *place.Problem {
	n := len(wp.Modules)
	p := &place.Problem{
		Names:      make([]string, n),
		W:          make([]int, n),
		H:          make([]int, n),
		Nets:       wp.Nets,
		AreaWeight: wp.Objective.AreaWeight,
		WireWeight: wp.Objective.WireWeight,
	}
	for i, m := range wp.Modules {
		p.Names[i], p.W[i], p.H[i] = m.Name, m.W, m.H
	}
	for _, g := range wp.Symmetry {
		p.Groups = append(p.Groups, seqpair.Group{Pairs: g.Pairs, Selfs: g.Selfs})
	}
	return p
}

// moves replays the seqpair engine's move kernel on each instance, as
// many moves as its schedule runs: an S-F move (PerturbSFTouched, the
// engine's move below 2048 modules), a pack (incremental on flat
// instances, PackSymmetric with symmetry groups) and a cost Update. A
// move is kept with the acceptance ratio the instance's replayed solve
// had; otherwise the cost is undone and the sequence pair restored,
// as the engine does for a rejected move.
func (rp *replayer) moves(insts []*instance, seed int64) {
	for k, inst := range insts {
		acceptRatio := rp.accept[inst]
		p := flatProblem(inst.prob)
		n := p.N()
		rng := rand.New(rand.NewSource(seed + int64(k)))
		sp := seqpair.RandomSF(n, p.Groups, rng)
		model := p.NewModel()
		var ip seqpair.IncPack
		var saved seqpair.State
		if len(p.Groups) > 0 {
			if x, y, err := sp.PackSymmetric(p.W, p.H, p.Groups); err == nil {
				model.Update(x, y, p.W, p.H, nil)
			}
		} else {
			x, y := sp.PackIncrementalInto(&ip, p.W, p.H)
			model.Update(x, y, p.W, p.H, nil)
		}
		req, err := wire.DecodeRequest(inst.body)
		if err != nil {
			continue
		}
		id := rp.nextID()
		root := rp.tr.newID()
		begin := time.Now()
		total := req.Options.MovesPerStage * req.Options.MaxStages
		for m := 0; m < total; m++ {
			t0 := time.Now()
			sp.SaveState(&saved)
			_, a, b := sp.PerturbSFTouched(rng, p.Groups)
			lo, hi := 0, n-1
			if a >= 0 {
				lo, hi = sp.PosAlpha(a), sp.PosAlpha(b)
			}
			t1 := time.Now()
			var x, y []int
			feasible := true
			if len(p.Groups) > 0 {
				x, y, err = sp.PackSymmetric(p.W, p.H, p.Groups)
				feasible = err == nil
			} else {
				ip.Disturb(lo, hi)
				x, y = sp.PackIncrementalInto(&ip, p.W, p.H)
			}
			t2 := time.Now()
			accept := feasible && rng.Float64() < acceptRatio
			if feasible {
				model.Update(x, y, p.W, p.H, nil)
				if !accept {
					model.Undo()
				}
			} else {
				rp.infeasible++
			}
			t3 := time.Now()
			if !accept {
				sp.LoadState(&saved)
				ip.Disturb(lo, hi)
			}
			rp.tr.put(span{Req: id, Parent: root, Name: "seqpair.perturb", Start: t0, End: t1})
			rp.tr.put(span{Req: id, Parent: root, Name: "seqpair.pack", Start: t1, End: t2})
			rp.tr.put(span{Req: id, Parent: root, Name: "cost.update", Start: t2, End: t3})
			rp.perturb += t1.Sub(t0)
			rp.pack += t2.Sub(t1)
			rp.update += t3.Sub(t2)
			rp.replayMoves++
		}
		rp.tr.put(span{ID: root, Req: id, Name: "replay.moves", Start: begin, End: time.Now()})
	}
}

// spread picks up to k instances evenly across insts.
func spread(insts []*instance, k int) []*instance {
	if len(insts) <= k {
		return insts
	}
	out := make([]*instance, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, insts[i*(len(insts)-1)/(k-1)])
	}
	return out
}

// perUS is a total time per move in microseconds.
func perUS(d time.Duration, moves int) float64 {
	if moves == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(moves)
}
