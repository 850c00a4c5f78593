package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark wrapped: a request's client
// round trip, the daemon's handler, a store operation, a replayed
// call into a layer's public functions.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the request (or replay) the span belongs to; spans of one
	// request share it.
	Req   int64     `json:"req"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Hash and Job are the request's content hash and job id, which
	// link store calls (which know only the key they were called with)
	// to the request that made them.
	Hash string `json:"hash,omitempty"`
	Job  string `json:"job,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// requestHeader carries the request id from the load generator to the
// handler wrapper; the daemon itself ignores it.
const requestHeader = "X-Bench-Request"

// tracer keeps the benchmark's spans in memory. Recording is off
// unless on is set, so an untraced window pays one atomic load per
// wrapped call.
type tracer struct {
	on   atomic.Bool
	next atomic.Uint64
	mu   sync.Mutex
	all  []span
}

// add records a finished span while tracing is on.
func (t *tracer) add(s span) {
	if t.on.Load() {
		t.put(s)
	}
}

// put records a finished span whether or not tracing is on, for spans
// built after a traced window from what it recorded. A span without
// an id gets a fresh one; a parent that ends after its children takes
// its id from newID before they start.
func (t *tracer) put(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

func (t *tracer) newID() uint64 { return t.next.Add(1) }

// spans snapshots the recorded spans in id order.
func (t *tracer) spans() []span {
	t.mu.Lock()
	out := append([]span(nil), t.all...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// wrap times the real handler in an "http.handler" span tagged with
// the request id the load generator sent.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{Req: req, Name: "http.handler", Start: start, End: time.Now()})
	})
}

// link fills in the parents the recording sites could not know. The
// handler and generator-lag spans of a request parent under its
// "request" root. A store call parents under the call that made it (a
// request's handler, or a replayed "service.submit"): a job-record
// write by its job id; a result read or write, which knows only its
// hash, under a call with that hash whose interval contains it and
// that has no child of that name yet, since a call makes each store
// call at most once. A result written after the reply went out
// parents under the latest call with its hash started before it,
// outside that call's interval.
func link(spans []span) {
	roots := map[int64]int{}
	handlers := map[int64]int{}
	for i, s := range spans {
		switch s.Name {
		case "request":
			roots[s.Req] = i
		case "http.handler":
			handlers[s.Req] = i
		}
	}
	byHash := map[string][]int{}
	byJob := map[string]int{}
	var stores []int
	for i, s := range spans {
		switch {
		case s.Name == "request" || s.Name == "service.submit":
			c := i
			if h, ok := handlers[s.Req]; ok && s.Name == "request" {
				c = h
			}
			if s.Hash != "" {
				byHash[s.Hash] = append(byHash[s.Hash], c)
			}
			if s.Job != "" {
				byJob[s.Job] = c
			}
		case s.Name == "http.handler", s.Name == "generator.lag":
			if r, ok := roots[s.Req]; ok {
				spans[i].Parent = spans[r].ID
			}
		case s.Req == 0 && s.Parent == 0:
			stores = append(stores, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start.Before(spans[idx[b]].Start) })
	}
	byStart(stores)
	for _, cs := range byHash {
		byStart(cs)
	}
	type slot struct {
		container int
		name      string
	}
	used := map[slot]bool{}
	assign := func(i, c int) {
		used[slot{c, spans[i].Name}] = true
		spans[i].Parent = spans[c].ID
		spans[i].Req = spans[c].Req
	}
	// Job-record writes first: their job id names the call exactly.
	jobPut := map[int]time.Time{}
	for _, i := range stores {
		if c, ok := byJob[spans[i].Job]; ok && spans[i].Job != "" {
			assign(i, c)
			jobPut[c] = spans[i].Start
		}
	}
	for _, i := range stores {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		// Among the calls with this hash that contain s and lack a child
		// of its name, take the one whose job-record write follows s
		// soonest (a cache hit writes its record right after the read),
		// else the earliest started; failing all, the latest started
		// before s.
		best, gap, latest := -1, time.Duration(math.MaxInt64), -1
		for _, c := range byHash[s.Hash] {
			cs := spans[c]
			if cs.Start.After(s.Start) {
				break
			}
			latest = c
			if cs.End.Before(s.Start) || used[slot{c, s.Name}] {
				continue
			}
			g := time.Duration(math.MaxInt64 - 1)
			if at, ok := jobPut[c]; ok && !at.Before(s.End) {
				g = at.Sub(s.End)
			}
			if g < gap {
				best, gap = c, g
			}
		}
		if best < 0 {
			best = latest
		}
		if best >= 0 {
			assign(i, best)
		}
	}
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval that its children cover. Each span is first
// clipped to its parent's clipped interval, so over one tree the self
// times of non-overlapping siblings sum to the root's duration.
func selfTimes(spans []span) map[uint64]time.Duration {
	byID := make(map[uint64]*span, len(spans))
	children := map[uint64][]uint64{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] != nil {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	type window struct{ lo, hi time.Time }
	clipped := make(map[uint64]window, len(spans))
	var clip func(id uint64) window
	clip = func(id uint64) window {
		if w, ok := clipped[id]; ok {
			return w
		}
		s := byID[id]
		w := window{s.Start, s.End}
		if p := byID[s.Parent]; s.Parent != 0 && p != nil {
			pw := clip(p.ID)
			if w.lo.Before(pw.lo) {
				w.lo = pw.lo
			}
			if w.hi.After(pw.hi) {
				w.hi = pw.hi
			}
			if w.hi.Before(w.lo) {
				w.hi = w.lo
			}
		}
		clipped[id] = w
		return w
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		w := clip(s.ID)
		var kids []window
		for _, c := range children[s.ID] {
			kids = append(kids, clip(c))
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo.Before(kids[j].lo) })
		var covered time.Duration
		var cur window
		for i, k := range kids {
			switch {
			case i == 0:
				cur = k
			case !k.lo.After(cur.hi):
				if k.hi.After(cur.hi) {
					cur.hi = k.hi
				}
			default:
				covered += cur.hi.Sub(cur.lo)
				cur = k
			}
		}
		if len(kids) > 0 {
			covered += cur.hi.Sub(cur.lo)
		}
		self[s.ID] = w.hi.Sub(w.lo) - covered
	}
	return self
}

// selfByName collects the self times of every span with the given
// name, in milliseconds.
func selfByName(spans []span, self map[uint64]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}

// treeGap returns, over every request tree, the largest difference
// between the request's duration and the sum of its tree's self
// times. Zero means the span tree covers each request exactly.
func treeGap(spans []span, self map[uint64]time.Duration) time.Duration {
	sum := map[int64]time.Duration{}
	total := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Req <= 0 {
			continue
		}
		sum[s.Req] += self[s.ID]
		if s.Name == "request" {
			total[s.Req] = s.dur()
		}
	}
	var worst time.Duration
	for req, d := range total {
		gap := d - sum[req]
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
	}
	return worst
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
