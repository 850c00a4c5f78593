package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// instance is one distinct request body and what its answer must
// satisfy.
type instance struct {
	body []byte
	prob *wire.Problem
	// Known once the instance has been solved: its content hash, its
	// cost, and ref, the encoded result part every cache-hit reply
	// for it must repeat byte for byte.
	hash string
	cost float64
	ref  []byte
}

// newInstance generates a seeded synthetic instance under the
// conventional area + wirelength objective and encodes its request.
func newInstance(spec placer.SyntheticSpec, opts wire.Options) (*instance, error) {
	p, err := placer.Synthetic(spec)
	if err != nil {
		return nil, err
	}
	wp := wire.FromCanon(p)
	wp.Objective.WireWeight = 1
	body, err := json.Marshal(&wire.Request{Problem: *wp, Options: opts})
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return &instance{body: body, prob: wp}, nil
}

// fixedSchedule runs exactly moves×stages moves: the stall exit is
// pushed to the last stage.
func fixedSchedule(seed int64, moves, stages int) wire.Options {
	return wire.Options{Seed: seed, MovesPerStage: moves, MaxStages: stages, StallStages: stages}
}

// record is one request sent in a window.
type record struct {
	id   int64
	inst *instance
	hit  bool
	// due is when an open loop meant to send; a closed loop sends at due.
	due, sent, done time.Time
	status          int
	err             error
	// reason is a failed check; body is kept for solved replies, which
	// are checked after the window.
	reason    string
	body      []byte
	respBytes int
	runtimeMS int64
	// job is the job id the reply named.
	job string
}

// send posts r's instance and fills in the reply. A cache hit is
// checked on the spot (a byte comparison); a solved reply is kept for
// the check after the window.
func (r *record) send(d *daemon, buf *bytes.Buffer) {
	r.sent = time.Now()
	if r.due.IsZero() {
		r.due = r.sent
	}
	r.status, r.err = d.post(r.inst.body, r.id, buf)
	r.done = time.Now()
	r.respBytes = buf.Len()
	r.job = jobID(buf.Bytes())
	switch {
	case r.err != nil:
	case r.hit:
		r.reason = checkHit(r.status, buf.Bytes(), r.inst.ref)
	default:
		r.body = bytes.Clone(buf.Bytes())
	}
}

// jobID reads the job id a JobView reply opens with ("" for an error
// reply).
func jobID(body []byte) string {
	rest, ok := bytes.CutPrefix(body, []byte(`{"id":"`))
	if !ok {
		return ""
	}
	id, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(id)
}

// finish checks a solved reply and turns the record into a sample. A
// solved instance learns its hash, cost and hit reference here.
func (r *record) finish() sample {
	s := sample{latencyMS: ms(r.done.Sub(r.due)), hit: r.hit}
	switch {
	case r.err != nil:
		s.reason = r.err.Error()
	case r.reason != "":
		s.reason = r.reason
	case r.hit:
		s.ok, s.cost = true, r.inst.cost
	default:
		v, err := decodeSolved(r.status, r.body, r.inst.prob)
		if err != nil {
			s.reason = err.Error()
			break
		}
		s.ok, s.cost = true, v.Result.Cost
		r.runtimeMS = v.Result.RuntimeMS
		r.inst.hash, r.inst.cost = v.Hash, v.Result.Cost
		r.inst.ref, _ = resultSuffix(r.body)
		r.body = nil
	}
	return s
}

// window is what one timed load window sent and measured.
type window struct {
	records []*record
	samples []sample
	// throughput is successful requests per second of timed wall
	// clock.
	throughput float64
	// lags are how late the open-loop generator sent each request, ms.
	lags []float64
	// before/after bracket the scheduler counters; wall is the time
	// from the first send to the last reply.
	before, after service.Metrics
	wall          time.Duration
}

// solverBusy is the share of the daemon's solver capacity the window
// used.
func (w *window) solverBusy() float64 {
	return (w.after.SolveSum - w.before.SolveSum) / (daemonSolvers * w.wall.Seconds())
}

// finish checks every reply of the window and computes its samples.
func (w *window) finish() {
	w.samples = make([]sample, len(w.records))
	for i, r := range w.records {
		w.samples[i] = r.finish()
	}
}

// thirds assigns each sample the third of the window [start,
// start+length) it was due in (see summarize).
func (w *window) thirds(start time.Time, length time.Duration) {
	for i, r := range w.records {
		w.samples[i].part = min(2, int(3*r.due.Sub(start)/length))
	}
}

// closedLoop runs clients that each send their next request only when
// the previous reply is in, until the window closes or next runs out
// of instances (a zero window never closes). Throughput sums every
// client's completed requests over its own busy time, so a request cut
// by the window end never counts as a fraction.
func closedLoop(b *bench, clients int, seconds float64, next func(rng *rand.Rand) (*instance, bool, bool)) *window {
	w := &window{before: b.d.sched.Metrics()}
	per := make([][]*record, clients)
	rates := make([]float64, clients)
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	if seconds == 0 {
		end = start.Add(24 * time.Hour)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(b.windows*clients+c)))
			var buf bytes.Buffer
			var ok int
			last := start
			for time.Now().Before(end) {
				inst, hit, more := next(rng)
				if !more {
					break
				}
				r := &record{id: b.nextReq(), inst: inst, hit: hit}
				r.send(b.d, &buf)
				per[c] = append(per[c], r)
				ok++
				last = r.done
			}
			mu.Lock()
			w.wall = max(w.wall, last.Sub(start))
			mu.Unlock()
			if d := last.Sub(start).Seconds(); d > 0 {
				rates[c] = float64(ok) / d
			}
		}(c)
	}
	wg.Wait()
	b.windows++
	w.after = b.d.sched.Metrics()
	for c := range per {
		w.records = append(w.records, per[c]...)
	}
	w.finish()
	if seconds > 0 {
		w.thirds(start, end.Sub(start))
	}
	failedShare := 1.0
	if n := len(w.samples); n > 0 {
		failedShare = float64(countFailed(w.samples)) / float64(n)
	}
	for _, r := range rates {
		w.throughput += r * (1 - failedShare)
	}
	return w
}

// planned is one open-loop request: when it is due and what it sends.
type planned struct {
	at   time.Duration
	inst *instance
	hit  bool
}

// openLoop sends every planned request at its due time from a single
// generator, whether or not earlier replies are in, and waits for all
// replies.
func openLoop(b *bench, plan []planned) *window {
	w := &window{before: b.d.sched.Metrics()}
	w.records = make([]*record, len(plan))
	w.lags = make([]float64, len(plan))
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plan {
		due := start.Add(p.at)
		time.Sleep(time.Until(due))
		w.lags[i] = ms(time.Since(due))
		r := &record{id: b.nextReq(), inst: p.inst, hit: p.hit, due: due}
		w.records[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := bufs.Get().(*bytes.Buffer)
			r.send(b.d, buf)
			bufs.Put(buf)
		}()
	}
	wg.Wait()
	b.windows++
	w.after = b.d.sched.Metrics()
	w.finish()
	if len(plan) > 0 {
		w.thirds(start, plan[len(plan)-1].at+1)
	}
	last := start
	ok := 0
	for i, r := range w.records {
		last = maxTime(last, r.done)
		if w.samples[i].ok {
			ok++
		}
	}
	w.wall = last.Sub(start)
	if d := w.wall.Seconds(); d > 0 {
		w.throughput = float64(ok) / d
	}
	return w
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// sendEach sends every instance once from the closed-loop clients.
func sendEach(b *bench, insts []*instance, hit bool) *window {
	var mu sync.Mutex
	k := 0
	return closedLoop(b, loadClients, 0, func(*rand.Rand) (*instance, bool, bool) {
		mu.Lock()
		defer mu.Unlock()
		if k == len(insts) {
			return nil, false, false
		}
		k++
		return insts[k-1], hit, true
	})
}

// presolve solves every instance once, checking each answer in full,
// then asks for each again: from then on it is a cache hit whose
// result must repeat the solve's byte for byte. It returns the solves
// as samples.
func presolve(b *bench, insts []*instance) ([]sample, error) {
	solves := sendEach(b, insts, false)
	for _, w := range []*window{solves, sendEach(b, insts, true)} {
		for _, s := range w.samples {
			if !s.ok {
				return nil, fmt.Errorf("set-up request failed: %s", s.reason)
			}
		}
	}
	return solves.samples, nil
}
