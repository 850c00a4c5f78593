package service

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/placer"
)

// post sends body to POST /v1/place?wait=1 through h and returns the
// status and the response body.
func post(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place?wait=1", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// wallClock matches the job view's wall-clock fields and its job id,
// which differ between two schedulers answering the same request.
var wallClock = regexp.MustCompile(`"(id|runtime_ms|moves_per_sec)":("[^"]*"|[-+.eE0-9]+)`)

func masked(body []byte) string {
	return wallClock.ReplaceAllString(string(body), `"$1":_`)
}

// fuzzCorpus reads a checked-in fuzz corpus of the wire package: each
// file is "go test fuzz v1" and one []byte("...") literal.
func fuzzCorpus(t *testing.T, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no %s corpus (err %v)", target, err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file", f)
		}
		out = append(out, []byte(data))
	}
	return out
}

// TestBodyMemoDifferential replays every FuzzDecodeProblem and
// FuzzDecodeBatchRequest corpus entry through the handler, raw and
// wrapped as a request's problem, twice each: once on a scheduler with
// the body memo, once on one without. The two must answer the same
// status and bytes (job ids and wall-clock fields masked), a repeat of
// an accepted body must be served through the memo, and a rejected
// body must never enter it.
func TestBodyMemoDifferential(t *testing.T) {
	var bodies [][]byte
	for _, target := range []string{"FuzzDecodeProblem", "FuzzDecodeBatchRequest"} {
		for _, data := range fuzzCorpus(t, target) {
			wrapped := `{"problem":` + string(data) + `,"options":{"moves_per_stage":5,"max_stages":2,"stall_stages":2}}`
			bodies = append(bodies, data, []byte(wrapped))
		}
	}
	accepted := 0
	for i, body := range bodies {
		withMemo, without := New(Config{Workers: 1}), New(Config{Workers: 1})
		without.memo = nil
		hm, hd := NewHandler(withMemo), NewHandler(without)
		for round := 0; round < 2; round++ {
			cm, bm := post(hm, body)
			cd, bd := post(hd, body)
			if cm != cd || masked(bm) != masked(bd) {
				t.Fatalf("body %d round %d: memo answered %d %s\ndecode answered %d %s", i, round, cm, bm, cd, bd)
			}
			entries, n := memoSize(withMemo.memo)
			switch {
			case cm == http.StatusBadRequest && entries != 0:
				t.Fatalf("body %d: rejected (%s) but the memo holds %d entries", i, bm, entries)
			case cm == http.StatusOK && (entries != 1 || n != len(body)):
				t.Fatalf("body %d: accepted but the memo holds %d entries / %d bytes", i, entries, n)
			case cm == http.StatusOK && round == 1 && !view(t, bm).CacheHit:
				t.Fatalf("body %d: repeat was not a cache hit: %s", i, bm)
			case cm == http.StatusOK && round == 1:
				accepted++
			case cm == http.StatusOK:
				// The repeat must find the result cached, which finish
				// does after waking the waiters.
				waitRecorded(t, withMemo, view(t, bm).ID)
				waitRecorded(t, without, view(t, bd).ID)
			}
		}
		withMemo.Close()
		without.Close()
	}
	if accepted == 0 {
		t.Fatal("no corpus body was accepted; the memo path went unexercised")
	}
	t.Logf("%d bodies, %d accepted", len(bodies), accepted)
}

// memoSize reports the memo's entry count and body bytes.
func memoSize(m *bodyMemo) (entries, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len(), m.bytes
}

// view decodes a job view.
func view(t *testing.T, body []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad job JSON: %v\n%s", err, body)
	}
	return v
}

// TestBodyMemoEvictedResult: the memo still knows a body whose result
// the cache has dropped, so the repeat decodes again and solves, and
// the new solve answers the first one's bytes.
func TestBodyMemoEvictedResult(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := NewHandler(s)
	body := millerWireRequest(t)
	code, first := post(h, body)
	if code != http.StatusOK {
		t.Fatalf("first POST: %d %s", code, first)
	}
	v := view(t, first)
	waitRecorded(t, s, v.ID) // the result is cached by now
	if err := s.results.Delete(v.Hash); err != nil {
		t.Fatal(err)
	}
	if _, known := s.memo.lookup(body); !known {
		t.Fatal("the memo forgot an accepted body")
	}
	code, again := post(h, body)
	if code != http.StatusOK {
		t.Fatalf("POST after eviction: %d %s", code, again)
	}
	if w := view(t, again); w.CacheHit || w.State != StateDone || w.Hash != v.Hash {
		t.Fatalf("POST after eviction: cache_hit %v state %s hash %s, want a fresh solve of %s", w.CacheHit, w.State, w.Hash, v.Hash)
	}
	if masked(again) != masked(first) {
		t.Fatalf("re-solve answered\n%s\nfirst solve answered\n%s", again, first)
	}
	if m := s.Metrics(); m.CacheMisses != 2 || m.JobsDone != 2 {
		t.Fatalf("metrics %+v, want two misses and two solves", m)
	}
}

// TestBodyMemoFailpointOnce: the wire/decode-err failpoint is
// evaluated once per request that decoded or matched the memo, the
// re-decode after an eviction included, and never for a rejected body.
func TestBodyMemoFailpointOnce(t *testing.T) {
	defer fault.Reset()
	fault.Enable("wire/decode-err", 0) // evaluated, never fires
	s := New(Config{Workers: 1})
	defer s.Close()
	h := NewHandler(s)
	body := millerWireRequest(t)
	code, out := post(h, body) // decoded
	if code != http.StatusOK {
		t.Fatalf("first POST: %d %s", code, out)
	}
	v := view(t, out)
	waitRecorded(t, s, v.ID)
	if code, out := post(h, body); code != http.StatusOK { // memo match, cache hit
		t.Fatalf("repeat: %d %s", code, out)
	}
	if code, _ := post(h, []byte(`{"problem":{}}`)); code != http.StatusBadRequest {
		t.Fatalf("invalid body answered %d", code)
	}
	if err := s.results.Delete(v.Hash); err != nil {
		t.Fatal(err)
	}
	if code, out := post(h, body); code != http.StatusOK { // memo match, decoded again
		t.Fatalf("POST after eviction: %d %s", code, out)
	}
	if n := fault.Evals("wire/decode-err"); n != 3 {
		t.Fatalf("failpoint evaluated %d times over 3 accepted requests", n)
	}
}

// TestBodyMemoCollision: with every body forced onto one memo key,
// different bodies still never share a content hash.
func TestBodyMemoCollision(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	s.memo.key = func(maphash.Seed, []byte) uint64 { return 42 }
	h := NewHandler(s)
	a := millerWireRequest(t)
	req := millerRequest(t, placer.SeqPair)
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]string{} // hash → the masked result it answered first
	for round := 0; round < 3; round++ {
		for _, body := range [][]byte{a, b} {
			_, want, err := wire.DecodeRequestHash(body)
			if err != nil {
				t.Fatal(err)
			}
			code, out := post(h, body)
			if code != http.StatusOK {
				t.Fatalf("POST: %d %s", code, out)
			}
			v := view(t, out)
			if v.Hash != want {
				t.Fatalf("round %d: body answered hash %s, its own is %s", round, v.Hash, want)
			}
			res, err := json.Marshal(v.Result)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := results[want]; !ok {
				results[want] = masked(res)
			} else if prev != masked(res) {
				t.Fatalf("round %d: result changed:\n%s\n%s", round, prev, res)
			}
		}
	}
	if entries, _ := memoSize(s.memo); entries != 1 {
		t.Fatalf("memo holds %d entries under one key, want 1", entries)
	}
}

// TestBodyMemoBound: the memo keeps at most the result cache's entry
// count and maxRequestBytes of bodies, evicting the least recently
// used; without a result cache there is none.
func TestBodyMemoBound(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want int // entry bound; 0 means no memo
	}{
		{Config{}, 128},
		{Config{CacheSize: 3}, 3},
		{Config{CacheSize: -1}, 0},
		{Config{CacheSize: -1, Results: store.NewResultCache(store.NewMemory(4), 0)}, 128},
	} {
		s := New(c.cfg)
		s.Close()
		switch {
		case c.want == 0 && s.memo != nil:
			t.Errorf("CacheSize %d: a memo without a result cache", c.cfg.CacheSize)
		case c.want != 0 && (s.memo == nil || s.memo.maxEntries != c.want || s.memo.maxBytes != maxRequestBytes):
			t.Errorf("CacheSize %d: memo %+v, want %d entries / %d bytes", c.cfg.CacheSize, s.memo, c.want, maxRequestBytes)
		}
	}

	body := func(i, n int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, n) }
	m := newBodyMemo(3, 100)
	for i := 0; i < 3; i++ {
		m.remember(body(i, 10), strconv.Itoa(i))
	}
	m.lookup(body(0, 10)) // 1 is now the least recently used
	m.remember(body(3, 10), "3")
	if _, ok := m.lookup(body(1, 10)); ok {
		t.Fatal("entry bound: the least recently used body survived")
	}
	for _, i := range []int{0, 2, 3} {
		if h, ok := m.lookup(body(i, 10)); !ok || h != strconv.Itoa(i) {
			t.Fatalf("entry bound: body %d answered %q, %v", i, h, ok)
		}
	}
	m.remember(body(4, 85), "4") // 0 goes for the entry bound, 2 for the byte bound
	if entries, n := memoSize(m); entries != 2 || n != 95 {
		t.Fatalf("byte bound: %d entries / %d bytes, want 2 / 95", entries, n)
	}
	if _, ok := m.lookup(body(3, 10)); !ok {
		t.Fatal("byte bound: the most recent small body was evicted")
	}
	m.remember(body(5, 101), "5")
	if _, ok := m.lookup(body(5, 101)); ok {
		t.Fatal("a body over the byte bound was kept")
	}
	if entries, n := memoSize(m); entries != 2 || n != 95 {
		t.Fatalf("an oversized body evicted others: %d entries / %d bytes", entries, n)
	}
}

// TestRestartBackoff pins worker supervision backoff at its defaults:
// delays drawn from [cur/2, cur] with cur doubling from 25 ms to a 5 s
// cap, and starting over after a crash that ended a run longer than
// four times the cap.
func TestRestartBackoff(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if s.cfg.restartBase != 25*time.Millisecond || s.cfg.restartMax != 5*time.Second {
		t.Fatalf("default backoff %v..%v, want 25ms..5s", s.cfg.restartBase, s.cfg.restartMax)
	}
	b := restartBackoff{base: s.cfg.restartBase, max: s.cfg.restartMax}
	rng := rand.New(rand.NewSource(1))
	check := func(ran, cur time.Duration) {
		t.Helper()
		if d := b.next(ran, rng); d < cur/2 || d > cur {
			t.Fatalf("delay %v outside [%v, %v]", d, cur/2, cur)
		}
	}
	cur := 25 * time.Millisecond
	for i := 0; i < 12; i++ { // 25ms·2^8 passes the cap
		check(0, cur)
		cur = min(2*cur, 5*time.Second)
	}
	if b.cur != 5*time.Second {
		t.Fatalf("backoff %v after 12 crashes, want the 5s cap", b.cur)
	}
	check(20*time.Second, 5*time.Second) // exactly 4× the cap: still a crash loop
	check(20*time.Second+1, 25*time.Millisecond)
	if b.cur != 50*time.Millisecond {
		t.Fatalf("backoff %v after a reset, want 50ms", b.cur)
	}
}

// nanJobStore answers every id with a record whose result JSON cannot
// encode (a NaN cost), as a store that skipped encoding could.
type nanJobStore struct{ store.JobStore }

func (nanJobStore) Get(id string) (*store.JobRecord, bool, error) {
	return &store.JobRecord{ID: id, State: string(StateDone), Result: &wire.Result{Cost: math.NaN()}}, true, nil
}

// TestUnencodableViewAnswers500: a view that cannot be encoded answers
// 500 with an error body, not an empty 200, and is counted; so is an
// SSE event that cannot be.
func TestUnencodableViewAnswers500(t *testing.T) {
	h := newHarness(t, Config{Workers: 1, Jobs: nanJobStore{store.NewJobStore(store.NewMemory(8), 0)}})
	code, body := h.do(http.MethodGet, "/v1/jobs/job-1", nil)
	if code != http.StatusInternalServerError || !strings.Contains(string(body), `"error"`) {
		t.Fatalf("GET of an unencodable record: %d %q, want 500 with an error", code, body)
	}
	if got := h.metric(`placed_http_write_errors_total{kind="encode"}`); got != 1 {
		t.Fatalf("encode errors = %g, want 1", got)
	}
	req, err := http.NewRequest(http.MethodGet, h.srv.URL+"/v1/jobs/job-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := h.httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := h.metric(`placed_http_write_errors_total{kind="encode"}`); got != 2 {
		t.Fatalf("encode errors after the SSE replay = %g, want 2", got)
	}
}

// hitBody is an n=1000 request with a short schedule, the body
// BenchmarkPlaceHit and TestPlaceHitGarbage repeat.
func hitBody(tb testing.TB) []byte {
	tb.Helper()
	p, err := placer.Synthetic(placer.SyntheticSpec{N: 1000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	wp := wire.FromCanon(p)
	wp.Objective.WireWeight = 1
	body, err := json.Marshal(&wire.Request{Problem: *wp,
		Options: wire.Options{Seed: 1, MovesPerStage: 10, MaxStages: 2, StallStages: 2}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// discardWriter is a ResponseWriter that keeps only the status, so a
// handler's allocations are the daemon's, not a recorder's growth.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// postDiscard sends body to POST /v1/place?wait=1 through h and
// returns the status, discarding the response body.
func postDiscard(h http.Handler, body []byte) int {
	w := &discardWriter{}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/place?wait=1", bytes.NewReader(body)))
	return w.code
}

// BenchmarkPlaceHit POSTs a cached n=1000 request through the handler
// into a discarding writer: memo answers the repeat from the body
// memo, decode forces a memo miss so every request is decoded,
// validated and hashed.
func BenchmarkPlaceHit(b *testing.B) {
	body := hitBody(b)
	for _, mode := range []string{"memo", "decode"} {
		b.Run(mode, func(b *testing.B) {
			s := New(Config{Workers: 1})
			defer s.Close()
			h := NewHandler(s)
			code, out := post(h, body)
			if code != http.StatusOK {
				b.Fatalf("solve: %d %s", code, out)
			}
			var v JobView
			if err := json.Unmarshal(out, &v); err != nil {
				b.Fatal(err)
			}
			waitRecorded(b, s, v.ID) // the result is cached by now
			if mode == "decode" {
				s.memo = nil
			}
			b.ReportAllocs()
			for b.Loop() {
				if code := postDiscard(h, body); code != http.StatusOK {
					b.Fatalf("hit: %d", code)
				}
			}
		})
	}
}
