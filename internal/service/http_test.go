package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/placer"
)

// httpHarness is one daemon instance under httptest.
type httpHarness struct {
	t     *testing.T
	s     *Scheduler
	srv   *httptest.Server
	httpc *http.Client
}

func newHarness(t *testing.T, cfg Config) *httpHarness {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return &httpHarness{t: t, s: s, srv: srv, httpc: srv.Client()}
}

func (h *httpHarness) do(method, path string, body []byte) (int, []byte) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.srv.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.httpc.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (h *httpHarness) job(body []byte) JobView {
	h.t.Helper()
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		h.t.Fatalf("bad job JSON: %v\n%s", err, body)
	}
	return v
}

// poll GETs the job until it reaches a terminal state.
func (h *httpHarness) poll(id string, timeout time.Duration) JobView {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := h.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			h.t.Fatalf("GET job: %d %s", code, body)
		}
		v := h.job(body)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *httpHarness) metric(name string) float64 {
	h.t.Helper()
	code, body := h.do(http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		h.t.Fatalf("/metrics: %d", code)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		h.t.Fatalf("metric %s missing from:\n%s", name, body)
	}
	f, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		h.t.Fatal(err)
	}
	return f
}

func millerWireRequest(t *testing.T) []byte {
	t.Helper()
	req := wire.Request{Problem: *benchProblem(t, "miller"), Options: wire.Options{
		Method: placer.SeqPair, Seed: 3, MovesPerStage: 60, MaxStages: 40, StallStages: 40,
	}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEndToEnd is the acceptance walk: POST the Miller op-amp bench
// as wire JSON, poll to completion, get a symmetry-feasible
// placement; POST the identical request again and get a cache hit
// (verified through /metrics) with the identical placement; cancel a
// long-running job via DELETE and get best-so-far promptly.
func TestEndToEnd(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	body := millerWireRequest(t)

	// Health first.
	if code, out := h.do(http.MethodGet, "/healthz", nil); code != http.StatusOK || !bytes.Contains(out, []byte("ok")) {
		t.Fatalf("healthz: %d %s", code, out)
	}

	// 1. Cold solve, async: accepted, then polled to done.
	code, out := h.do(http.MethodPost, "/v1/place", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %s", code, out)
	}
	v := h.job(out)
	if v.State.Terminal() && v.CacheHit {
		t.Fatalf("cold POST served from cache: %+v", v)
	}
	final := h.poll(v.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	res := final.Result
	if res == nil || len(res.Placement) != 9 {
		t.Fatalf("incomplete placement: %+v", res)
	}
	if !res.Legal {
		t.Fatal("placement has overlaps")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("placement not symmetry-feasible: %v", res.Violations)
	}
	if h.metric("placed_cache_hits_total") != 0 {
		t.Fatal("cold solve counted as cache hit")
	}
	if got := h.metric(`placed_jobs_total{state="done"}`); got != 1 {
		t.Fatalf("done counter %v after first solve", got)
	}

	// 2. Identical POST: immediate 200, cache hit, same placement.
	code, out = h.do(http.MethodPost, "/v1/place", body)
	if code != http.StatusOK {
		t.Fatalf("second POST: %d %s", code, out)
	}
	v2 := h.job(out)
	if !v2.CacheHit || v2.State != StateDone {
		t.Fatalf("second POST not a finished cache hit: %+v", v2)
	}
	if !reflect.DeepEqual(v2.Result.Placement, res.Placement) {
		t.Fatal("cache returned a different placement")
	}
	if v2.Result.Cost != res.Cost {
		t.Fatalf("cache returned a different cost: %v vs %v", v2.Result.Cost, res.Cost)
	}
	if h.metric("placed_cache_hits_total") != 1 {
		t.Fatal("cache hit not counted")
	}

	// 3. Cancellation: start a big job, wait until it reports
	// progress, DELETE it, and require a prompt best-so-far result.
	bp := benchProblem(t, "lnamixbias")
	// B*-tree: the 110-module bench has too many interleaved symmetry
	// groups for a random symmetric-feasible seed (seqpair fails its
	// init retries on it even outside the service). Near-flat cooling
	// keeps the schedule from reaching MinTemp before the DELETE.
	breq, err := json.Marshal(wire.Request{Problem: *bp, Options: wire.Options{
		Method: placer.BStar, MovesPerStage: 500, MaxStages: 1000000, StallStages: 1000000, Cooling: 0.99999,
	}})
	if err != nil {
		t.Fatal(err)
	}
	code, out = h.do(http.MethodPost, "/v1/place", breq)
	if code != http.StatusAccepted {
		t.Fatalf("big POST: %d %s", code, out)
	}
	bv := h.job(out)
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, out = h.do(http.MethodGet, "/v1/jobs/"+bv.ID, nil)
		if code != http.StatusOK {
			t.Fatalf("GET big job: %d", code)
		}
		cur := h.job(out)
		if cur.State == StateRunning && cur.Progress != nil && cur.Progress.Stage > 0 {
			if cur.Progress.BestCost <= 0 || cur.Progress.MovesPerSec <= 0 {
				t.Fatalf("implausible live progress: %+v", *cur.Progress)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("big job never reported progress (state %s)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelStart := time.Now()
	code, out = h.do(http.MethodDelete, "/v1/jobs/"+bv.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", code, out)
	}
	cancelled := h.poll(bv.ID, 30*time.Second)
	promptness := time.Since(cancelStart)
	if cancelled.State != StateCancelled {
		t.Fatalf("cancelled job finished %s", cancelled.State)
	}
	if cancelled.Result == nil || len(cancelled.Result.Placement) != 110 {
		t.Fatal("cancelled job lost its best-so-far placement")
	}
	if !cancelled.Result.Cancelled {
		t.Fatal("result not flagged cancelled")
	}
	// "Promptly": one stage boundary, not the full 10000-stage run.
	// Generous bound for slow CI machines.
	if promptness > 10*time.Second {
		t.Fatalf("cancellation took %v", promptness)
	}
	if got := h.metric(`placed_jobs_total{state="cancelled"}`); got != 1 {
		t.Fatalf("cancelled counter %v", got)
	}
}

// TestHTTPSyncAndErrors covers ?wait=1, decode rejection and unknown
// job handling.
func TestHTTPSyncAndErrors(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})

	// Synchronous solve returns 200 with the final result directly.
	code, out := h.do(http.MethodPost, "/v1/place?wait=1", millerWireRequest(t))
	if code != http.StatusOK {
		t.Fatalf("sync POST: %d %s", code, out)
	}
	v := h.job(out)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("sync POST did not finish the job: %+v", v)
	}

	// Malformed request → 400 with an error payload.
	code, out = h.do(http.MethodPost, "/v1/place", []byte(`{"problem":{"modules":[]}}`))
	if code != http.StatusBadRequest {
		t.Fatalf("invalid problem: %d %s", code, out)
	}
	var e map[string]string
	if err := json.Unmarshal(out, &e); err != nil || e["error"] == "" {
		t.Fatalf("no error payload: %s", out)
	}

	// Unknown field → 400 (strict decoding).
	code, _ = h.do(http.MethodPost, "/v1/place", []byte(`{"problem":{"modules":[{"name":"A","w":1,"h":1}],"objective":{}},"surprise":1}`))
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", code)
	}

	// Unknown job id → 404 for GET and DELETE.
	if code, _ = h.do(http.MethodGet, "/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d", code)
	}
	if code, _ = h.do(http.MethodDelete, "/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d", code)
	}
}

// TestHTTPPortfolio solves the Miller bench in portfolio mode over
// HTTP and checks the winner is constraint-feasible.
func TestHTTPPortfolio(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	body, err := json.Marshal(wire.Request{Problem: *benchProblem(t, "miller"), Options: wire.Options{
		Method: wire.MethodPortfolio, MovesPerStage: 40, MaxStages: 20, StallStages: 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	code, out := h.do(http.MethodPost, "/v1/place?wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("portfolio POST: %d %s", code, out)
	}
	v := h.job(out)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("portfolio: %+v", v)
	}
	if len(v.Result.Violations) != 0 {
		t.Fatalf("portfolio winner %s infeasible: %v", v.Result.Method, v.Result.Violations)
	}
	if fmt.Sprint(v.Result.Method) == "" {
		t.Fatal("no winner method recorded")
	}
}

// failingResponse is a ResponseWriter whose every body write fails, as
// a write to a client that hung up does.
type failingResponse struct{ header http.Header }

func (f *failingResponse) Header() http.Header        { return f.header }
func (f *failingResponse) Write([]byte) (int, error)  { return 0, errors.New("client gone") }
func (f *failingResponse) WriteHeader(statusCode int) {}

// TestMetricsWriteErrorCounted: a /metrics scrape that cannot reach
// its client is counted like every other failed response write.
func TestMetricsWriteErrorCounted(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	NewHandler(h.s).ServeHTTP(&failingResponse{header: http.Header{}}, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if got := h.metric(`placed_http_write_errors_total{kind="write"}`); got != 1 {
		t.Fatalf("write errors = %g after a failed scrape, want 1", got)
	}
}
