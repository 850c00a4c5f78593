package main

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
	}{
		{10000, 0.999, 9990, 10},
		{9999, 0.99, 9900, 99},
		{1000, 0.99, 990, 10},
		{999, 0.9, 900, 99},
		{100, 0.9, 90, 10},
		{99, 0.75, 75, 24},
		{40, 0.75, 30, 10},
		{39, 0.5, 20, 19},
		// Too few for any candidate: the median, with the shortfall.
		{15, 0.5, 8, 7},
	} {
		got := tailOf(ramp(c.n))
		if got.Q != c.q || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g = %g with %d beyond", c.n, got, 100*c.q, c.value, c.beyond)
		}
	}
}

func TestFailuresCountAsOverEveryLimit(t *testing.T) {
	var samples []sample
	for i := 0; i < 89; i++ {
		samples = append(samples, sample{latencyMS: 1, ok: true})
	}
	// Refused requests answer fast, but they still miss every limit.
	for i := 0; i < 11; i++ {
		samples = append(samples, sample{latencyMS: 0.1, reason: "status 429"})
	}
	st := summarize(samples, nil)
	if st.N != 100 || st.Failed != 11 {
		t.Fatalf("N=%d Failed=%d, want 100 and 11", st.N, st.Failed)
	}
	if st.P50 != 1 {
		t.Errorf("p50 = %v, want 1", st.P50)
	}
	if st.Tail.Q != 0.9 || !math.IsInf(st.Tail.Value, 1) {
		t.Errorf("tail = %+v, want p90 = +Inf: the failures are the slowest samples", st.Tail)
	}
	// With most requests failing, the median itself is over the limit
	// and reads as the request timeout.
	for i := 0; i < 80; i++ {
		samples = append(samples, sample{latencyMS: 0.1, reason: "timeout"})
	}
	if got := finite(summarize(samples, nil).P50); got != ms(requestTimeout) {
		t.Errorf("p50 with 91 of 180 failed = %v, want the timeout %v", got, ms(requestTimeout))
	}
}

func TestFiguresAreMediansOverParts(t *testing.T) {
	parts := func(per int, latency ...float64) []sample {
		var out []sample
		for p, l := range latency {
			for i := 0; i < per; i++ {
				out = append(out, sample{latencyMS: l, ok: true, part: p})
			}
		}
		return out
	}
	// One third of the window stalled: the medians over parts ignore it,
	// where the pooled p90 would be the stall.
	st := summarize(parts(50, 1, 2, 100), nil)
	if st.P50 != 2 || st.Tail.Value != 2 || st.Tail.Q != 0.75 || st.Tail.N != 50 {
		t.Errorf("50 per part: p50 %v, tail %+v; want 2 and p75 = 2 over parts of 50", st.P50, st.Tail)
	}
	// Parts too small for a tail of their own pool for it.
	st = summarize(parts(30, 1, 2, 100), nil)
	if st.P50 != 2 || st.Tail.Q != 0.75 || st.Tail.Value != 100 {
		t.Errorf("30 per part: p50 %v, tail %+v; want 2 and the pooled p75 = 100", st.P50, st.Tail)
	}
	// Too small even for a median: everything pools.
	st = summarize(parts(15, 1, 2, 100), nil)
	if st.P50 != 2 || st.Tail.Value != 100 || st.Tail.N != 45 {
		t.Errorf("15 per part: p50 %v, tail %+v; want pooled figures", st.P50, st.Tail)
	}
}

func TestRefusedAndTimedOutRepliesFail(t *testing.T) {
	inst := &instance{ref: []byte(`,"result":{}}` + "\n")}
	now := time.Now()
	for name, r := range map[string]*record{
		"429": {inst: inst, hit: true, due: now, done: now, status: 429,
			reason: checkHit(429, []byte(`{"error":"service: job queue full"}`), inst.ref)},
		"timeout":   {inst: inst, hit: true, due: now, done: now, err: context.DeadlineExceeded},
		"wrong hit": {inst: inst, hit: true, due: now, done: now, status: 200, reason: checkHit(200, []byte(`{"id":"job-1","state":"done","cache_hit":true,"result":{"cost":1}}`+"\n"), inst.ref)},
		"solve 503": {inst: inst, due: now, done: now, status: 503, body: []byte(`{"error":"closed"}`)},
	} {
		if s := r.finish(); s.ok || s.reason == "" {
			t.Errorf("%s: sample %+v counted as ok", name, s)
		}
	}
	ok := &record{inst: inst, hit: true, due: now, done: now.Add(time.Millisecond), status: 200,
		reason: checkHit(200, []byte(`{"id":"job-2","state":"done","hash":"h","cache_hit":true,"result":{}}`+"\n"), inst.ref)}
	if s := ok.finish(); !s.ok || s.latencyMS != 1 {
		t.Errorf("matching hit: %+v, want ok at 1 ms", s)
	}
}

// at builds a span over [from, to] milliseconds after a fixed epoch.
func at(id, parent uint64, req int64, name string, from, to float64) span {
	epoch := time.Unix(1_700_000_000, 0)
	d := func(v float64) time.Time { return epoch.Add(time.Duration(v * float64(time.Millisecond))) }
	return span{ID: id, Parent: parent, Req: req, Name: name, Start: d(from), End: d(to)}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		at(1, 0, 1, "request", 0, 10),
		at(2, 1, 1, "http.handler", 1, 9),
		at(3, 2, 1, "store.result_get", 2, 3),
		at(4, 2, 1, "store.job_put", 5, 6),
		// Written after the reply: clipped to nothing inside the tree.
		at(5, 2, 1, "store.result_put", 9.5, 11),
	}
	self := selfTimes(spans)
	want := map[uint64]float64{1: 2, 2: 6, 3: 1, 4: 1, 5: 0}
	for id, w := range want {
		if got := ms(self[id]); math.Abs(got-w) > 1e-9 {
			t.Errorf("span %d self = %v ms, want %v", id, got, w)
		}
	}
	if gap := treeGap(spans, self); gap != 0 {
		t.Errorf("self times leave %v of the request unaccounted", gap)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		at(1, 0, -1, "placer.solve", 0, 10),
		at(2, 1, -1, "anneal.stage", 1, 5),
		at(3, 1, -1, "anneal.stage", 4, 7),
		at(4, 1, -1, "anneal.stage", 8, 12), // overhangs its parent
	}
	if got := ms(selfTimes(spans)[1]); got != 2 {
		t.Errorf("parent self = %v ms, want 2 (10 minus the union [1,7]∪[8,10])", got)
	}
}

func TestLinkAttachesStoreCallsToTheirRequest(t *testing.T) {
	// Two requests for one hash overlap, and the later-started one
	// reads first. Job-record writes name their jobs; each result read
	// belongs to the request whose record write follows it soonest.
	spans := []span{
		at(1, 0, 0, "store.result_get", 1.5, 1.7),
		at(2, 0, 0, "store.job_put", 1.8, 1.9),
		at(3, 0, 0, "store.result_get", 1.2, 1.3),
		at(4, 0, 0, "store.job_put", 1.35, 1.4),
		at(5, 0, 1, "http.handler", 1, 3),
		at(6, 0, 2, "http.handler", 1.1, 2.5),
		at(7, 0, 1, "request", 0.9, 3.1),
		at(8, 0, 2, "request", 1.0, 2.6),
	}
	spans[0].Hash, spans[2].Hash = "h", "h"
	spans[1].Job, spans[3].Job = "job-1", "job-2"
	spans[6].Hash, spans[6].Job = "h", "job-1"
	spans[7].Hash, spans[7].Job = "h", "job-2"
	link(spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	want := map[uint64]uint64{1: 5, 2: 5, 3: 6, 4: 6, 5: 7, 6: 8}
	for id, parent := range want {
		if got := spans[id-1].Parent; got != parent {
			t.Errorf("span %d (%s) parent = %d, want %d", id, spans[id-1].Name, got, parent)
		}
	}
	self := selfTimes(spans)
	if gap := treeGap(spans, self); gap > time.Nanosecond {
		t.Errorf("linked trees leave %v unaccounted", gap)
	}
}
