package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
	"repro/placer"
)

// quickOptions keeps test solves fast but long enough to observe.
func quickOptions(method string) wire.Options {
	return wire.Options{Method: method, MovesPerStage: 40, MaxStages: 20, StallStages: 20, Seed: 1}
}

func millerRequest(t *testing.T, method string) *wire.Request {
	t.Helper()
	return &wire.Request{Problem: *benchProblem(t, "miller"), Options: quickOptions(method)}
}

func waitJob(t *testing.T, j *Job) *wire.Result {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
	return j.Result()
}

// waitRecorded waits until job id has left the live table, which
// finish does right after the job's record write returns.
func waitRecorded(t testing.TB, s *Scheduler, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := s.Job(id); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left the live table", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerSolvesAndCaches(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	req := millerRequest(t, placer.SeqPair)
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res1 := waitJob(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job1 state %s err %q", j1.State(), j1.Err())
	}
	if res1 == nil || len(res1.Placement) != 9 {
		t.Fatalf("bad result: %+v", res1)
	}
	if len(res1.Violations) != 0 {
		t.Fatalf("seqpair result violates constraints: %v", res1.Violations)
	}
	if j1.CacheHit() {
		t.Fatal("first solve cannot be a cache hit")
	}

	// Identical request → served from cache with an equal result. The
	// cache copies entries in and out (possibly through disk), so
	// equality is by serialized value, not pointer identity. Until j1
	// leaves the live table an identical submit coalesces onto it
	// instead, so wait for that first.
	waitRecorded(t, s, j1.ID)
	j2, err := s.Submit(millerRequest(t, placer.SeqPair))
	if err != nil {
		t.Fatal(err)
	}
	res2 := waitJob(t, j2)
	if !j2.CacheHit() {
		t.Fatal("identical request missed the cache")
	}
	b1, err1 := json.Marshal(res1)
	b2, err2 := json.Marshal(res2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache returned a different result value")
	}

	// Different seed → different content address → solved fresh.
	req3 := millerRequest(t, placer.SeqPair)
	req3.Options.Seed = 99
	j3, err := s.Submit(req3)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j3)
	if j3.CacheHit() {
		t.Fatal("different options must not hit the cache")
	}

	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 2 {
		t.Fatalf("cache counters: %+v", m)
	}
	// Cache-hit answers are not solver outcomes: done counts real
	// solves only, and must agree with the latency histogram.
	if m.JobsDone != 2 || m.SolveCount != 2 {
		t.Fatalf("done/solve counters: %+v", m)
	}

	// The cache-hit job never enters the live table; its id is answered
	// from the job store like any finished job's, and its record was
	// written before Submit returned.
	if _, ok := s.Job(j2.ID); ok {
		t.Fatalf("cache-hit job %s in the live table", j2.ID)
	}
	if rec, ok, err := s.Record(j2.ID); err != nil || !ok || !rec.CacheHit {
		t.Fatalf("cache-hit job %s not answered from the job store: %+v %v %v", j2.ID, rec, ok, err)
	}
}

func TestSchedulerDeterministicAcrossRuns(t *testing.T) {
	run := func() *wire.Result {
		s := New(Config{Workers: 1})
		defer s.Close()
		j, err := s.Submit(millerRequest(t, placer.SeqPair))
		if err != nil {
			t.Fatal(err)
		}
		return waitJob(t, j)
	}
	a, b := run(), run()
	if a.Cost != b.Cost {
		t.Fatalf("service solves not reproducible: %v vs %v", a.Cost, b.Cost)
	}
	if len(a.Placement) != len(b.Placement) {
		t.Fatal("placement sizes differ")
	}
	for i := range a.Placement {
		if a.Placement[i] != b.Placement[i] {
			t.Fatalf("placements differ at %d: %+v vs %+v", i, a.Placement[i], b.Placement[i])
		}
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	// One worker, occupy it, then cancel a queued job behind it.
	s := New(Config{Workers: 1})
	defer s.Close()
	slow, err := s.Submit(&wire.Request{Problem: *benchProblem(t, "buffer"), Options: wire.Options{MovesPerStage: 400, MaxStages: 400, StallStages: 400}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(millerRequest(t, placer.SeqPair))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("cancel lost the job")
	}
	if queued.State() != StateCancelled {
		t.Fatalf("queued job state %s after cancel", queued.State())
	}
	if queued.Result() != nil {
		t.Fatal("never-started job cannot have a result")
	}
	s.Cancel(slow.ID)
	waitJob(t, slow)
}

// TestCancelRunningDeterministicJob: cancelling a running esf job, an
// engine with no best-so-far that answers with its context's error,
// ends it cancelled rather than failed, and promptly: uncancelled,
// biasynth esf runs for seconds.
func TestCancelRunningDeterministicJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(&wire.Request{Problem: *benchProblem(t, "biasynth"), Options: wire.Options{Method: placer.ESF}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); j.State() != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", j.State())
		}
	}
	s.Cancel(j.ID)
	select {
	case <-j.Done():
	case <-time.After(500 * time.Millisecond):
		t.Fatalf("cancelled esf job still %s after 500ms", j.State())
	}
	if j.State() != StateCancelled || j.Result() != nil {
		t.Fatalf("cancelled esf job ended %s with result %v (err %q)", j.State(), j.Result(), j.Err())
	}
	if m := s.Metrics(); m.JobsCancelled != 1 || m.JobsFailed != 0 {
		t.Fatalf("counters after the cancel: %+v", m)
	}
}

// TestDeterministicJobTimeout: the request's own timeout_ms ends a
// running esf job cancelled, like a DELETE.
func TestDeterministicJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(&wire.Request{Problem: *benchProblem(t, "biasynth"),
		Options: wire.Options{Method: placer.ESF, TimeoutMS: 100}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateCancelled || j.Result() != nil {
		t.Fatalf("timed-out esf job ended %s with result %v (err %q)", j.State(), j.Result(), j.Err())
	}
}

// ctxErrEngine fails with a context error of its own making while
// the solve's context is still live, as a timed-out store call would.
type ctxErrEngine struct{}

func init() {
	placer.Register(placer.Info{Name: "x-test-ctxerr"}, func() placer.Engine { return ctxErrEngine{} })
}

func (ctxErrEngine) Solve(context.Context, *placer.Problem, placer.EngineOptions) (*placer.Result, error) {
	return nil, fmt.Errorf("store: %w", context.DeadlineExceeded)
}

// TestInnerContextErrorFails: only the solve's own context ending
// makes a job cancelled; a context error from anywhere else is a
// failure.
func TestInnerContextErrorFails(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(millerRequest(t, "x-test-ctxerr"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateFailed {
		t.Fatalf("inner context error ended the job %s, want failed (err %q)", j.State(), j.Err())
	}
}

func TestSchedulerCoalescesInflight(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	// Two equal requests, not one submitted twice: Submit owns its
	// request, and the first job's solve normalizes it concurrently.
	mk := func() *wire.Request {
		return &wire.Request{Problem: *benchProblem(t, "buffer"), Options: wire.Options{MovesPerStage: 300, MaxStages: 300, StallStages: 300}}
	}
	j1, err := s.Submit(mk())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(mk())
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight submissions were not coalesced")
	}
	if m := s.Metrics(); m.Coalesced != 1 {
		t.Fatalf("coalesced counter: %+v", m)
	}
	s.Cancel(j1.ID)
	waitJob(t, j1)
}

func TestSchedulerQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	mk := func(seed int64) *wire.Request {
		r := &wire.Request{Problem: *benchProblem(t, "buffer"), Options: wire.Options{MovesPerStage: 300, MaxStages: 300, StallStages: 300, Seed: seed}}
		return r
	}
	a, err := s.Submit(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	// Give the single worker a moment to pick up job a, then fill the
	// one queue slot and overflow it. Submission is not racy beyond
	// this: either b sits in the queue or a is still queued and b
	// overflows — both overflow by the third.
	time.Sleep(50 * time.Millisecond)
	var full bool
	for seed := int64(2); seed < 5; seed++ {
		if _, err := s.Submit(mk(seed)); err == ErrQueueFull {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("queue never filled")
	}
	s.Cancel(a.ID)
}

// TestCancelFreesQueueCapacity: cancelling queued jobs must free
// their queue slots immediately, not leave dead entries holding
// capacity until a worker drains them.
func TestCancelFreesQueueCapacity(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	mk := func(seed int64) *wire.Request {
		return &wire.Request{Problem: *benchProblem(t, "buffer"), Options: wire.Options{
			MovesPerStage: 300, MaxStages: 300, StallStages: 300, Seed: seed}}
	}
	running, err := s.Submit(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the worker pick up job 1
	var queued []*Job
	for seed := int64(2); ; seed++ {
		j, err := s.Submit(mk(seed))
		if err == ErrQueueFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
		if seed > 10 {
			t.Fatal("queue never filled")
		}
	}
	for _, j := range queued {
		s.Cancel(j.ID)
	}
	if _, err := s.Submit(mk(99)); err != nil {
		t.Fatalf("cancelled jobs still hold queue capacity: %v", err)
	}
	s.Cancel(running.ID)
	waitJob(t, running)
}

func TestPortfolioPicksFeasible(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	j, err := s.Submit(millerRequest(t, wire.MethodPortfolio))
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if j.State() != StateDone {
		t.Fatalf("portfolio job %s: %s", j.State(), j.Err())
	}
	if res == nil {
		t.Fatal("no result")
	}
	// Miller has symmetry groups and seqpair always satisfies them, so
	// the winner must be violation-free.
	if len(res.Violations) != 0 {
		t.Fatalf("portfolio winner %s violates constraints: %v", res.Method, res.Violations)
	}
	found := false
	for _, m := range placer.PortfolioAlgorithms() {
		if res.Method == m {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner method %q not in the portfolio", res.Method)
	}
}

// benchProblem puts one of placer's built-in benchmarks on the wire.
func benchProblem(t *testing.T, name string) *wire.Problem {
	t.Helper()
	p, err := placer.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return wire.FromCanon(p)
}

// TestProgressMultiStartMoves pins the per-chain progress sources:
// with several multi-start workers the aggregate move counter must
// equal the solver's own total, not a clobbered interleaving.
func TestProgressMultiStartMoves(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := millerRequest(t, placer.SeqPair)
	req.Options.Workers = 3
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if j.State() != StateDone {
		t.Fatalf("job %s: %s", j.State(), j.Err())
	}
	p, ok := j.Progress()
	if !ok {
		t.Fatal("no progress recorded")
	}
	if p.Moves != res.Moves {
		t.Fatalf("progress saw %d moves, solver did %d", p.Moves, res.Moves)
	}
	if p.BestCost != res.Cost {
		t.Fatalf("progress best %v, final cost %v", p.BestCost, res.Cost)
	}
}

// TestJobRetention: the default job store keeps the RetainJobs most
// recent terminal records and forgets older ones. (Queued and running
// jobs live in the scheduler's own table and are never evicted.)
func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 2, RetainJobs: 2})
	defer s.Close()
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		req := millerRequest(t, placer.SeqPair)
		req.Options.Seed = seed
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		waitRecorded(t, s, j.ID)
		ids = append(ids, j.ID)
	}
	if _, ok, err := s.Record(ids[0]); ok || err != nil {
		t.Fatalf("oldest terminal record retained beyond the bound (err %v)", err)
	}
	for _, id := range ids[1:] {
		if _, ok, err := s.Record(id); !ok || err != nil {
			t.Fatalf("record %s evicted while within the bound (err %v)", id, err)
		}
	}
	// Eviction forgets the job record, not the solved result: the
	// content-addressed cache still answers.
	req := millerRequest(t, placer.SeqPair)
	req.Options.Seed = 1
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if !j.CacheHit() {
		t.Fatal("result cache lost an entry to job retention")
	}
}

// TestZeroStageScheduleFails: a min_temp above the calibrated initial
// temperature must fail the job, not cache the random initial
// placement as a solved result.
func TestZeroStageScheduleFails(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := millerRequest(t, placer.SeqPair)
	req.Options.MinTemp = 1e30
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateFailed {
		t.Fatalf("zero-stage schedule finished %s (err %q)", j.State(), j.Err())
	}
	if m := s.Metrics(); m.JobsFailed != 1 || m.JobsDone != 0 {
		t.Fatalf("counters after degenerate schedule: %+v", m)
	}
}

func TestHBStarViaWire(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(millerRequest(t, placer.HBStar))
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if j.State() != StateDone {
		t.Fatalf("hbstar job %s: %s", j.State(), j.Err())
	}
	if res == nil || len(res.Placement) != 9 {
		t.Fatalf("hbstar result incomplete: %+v", res)
	}
	if !res.Legal {
		t.Fatal("hbstar produced an overlapping placement")
	}
}

// failingStore is a result cache whose every call fails, standing in
// for a broken backend; failingJobStore is its job-store twin.
type failingStore struct{}

type failingJobStore struct{ failingStore }

var errBackend = errors.New("backend down")

func (failingStore) Put(string, *wire.Result) error                { return errBackend }
func (failingStore) Get(string) (*wire.Result, bool, error)        { return nil, false, errBackend }
func (failingStore) Delete(string) error                           { return errBackend }
func (failingStore) List() ([]string, error)                       { return nil, errBackend }
func (failingStore) Stats() (store.Stats, error)                   { return store.Stats{}, errBackend }
func (failingJobStore) Put(*store.JobRecord) error                 { return errBackend }
func (failingJobStore) Get(string) (*store.JobRecord, bool, error) { return nil, false, errBackend }

// TestStoreErrorsCounted: a job still answers its waiter when every
// store call fails, and each failed operation moves its
// placed_store_errors_total counter. With its record unwritten the
// job is forgotten, and the job endpoints answer its id 503 — the
// store failed — rather than a misleading 404.
func TestStoreErrorsCounted(t *testing.T) {
	h := newHarness(t, Config{Workers: 1, Results: failingStore{}, Jobs: failingJobStore{}})
	j, err := h.s.Submit(millerRequest(t, placer.SeqPair))
	if err != nil {
		t.Fatal(err)
	}
	if res := waitJob(t, j); j.State() != StateDone || res == nil {
		t.Fatalf("job state %s err %q", j.State(), j.Err())
	}
	waitRecorded(t, h.s, j.ID)
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + j.ID},
		{http.MethodGet, "/v1/jobs/" + j.ID + "/trace"},
		{http.MethodDelete, "/v1/jobs/" + j.ID},
	} {
		if code, body := h.do(probe.method, probe.path, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s with the job store down: %d %s, want 503", probe.method, probe.path, code, body)
		}
	}
	for op, want := range map[string]float64{"result_get": 1, "result_put": 1, "job_put": 1, "job_get": 3} {
		if got := h.metric(`placed_store_errors_total{op="` + op + `"}`); got != want {
			t.Errorf("op %s counted %g times, want %g", op, got, want)
		}
	}
}

// TestCorruptCachedResultResolves: a result the file store holds
// but cannot decode is counted (result_get), dropped and re-solved —
// an identical POST answers 200 from a fresh solve, not a cache hit.
func TestCorruptCachedResultResolves(t *testing.T) {
	fs, err := store.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, Config{Workers: 1, Results: store.NewResultCache(fs, 0)})
	body := millerWireRequest(t)
	code, out := h.do(http.MethodPost, "/v1/place?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("first POST: %d %s", code, out)
	}
	first := h.job(out)
	if err := fs.Put(first.Hash, []byte("{garbage"), 0); err != nil {
		t.Fatal(err)
	}
	code, out = h.do(http.MethodPost, "/v1/place?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("POST over a corrupt entry: %d %s", code, out)
	}
	if v := h.job(out); v.State != StateDone || v.CacheHit || v.Result == nil {
		t.Fatalf("POST over a corrupt entry: state %s cache_hit %v, want a fresh solve", v.State, v.CacheHit)
	}
	if got := h.metric(`placed_store_errors_total{op="result_get"}`); got != 1 {
		t.Fatalf("result_get errors = %g, want 1", got)
	}
}

// TestStoreOpsTimed: every store call is timed into
// placed_store_seconds. One solve reads the cache, writes the result
// and the record; one hit reads the cache and writes a record.
func TestStoreOpsTimed(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	for i := 0; i < 2; i++ {
		j, err := h.s.Submit(millerRequest(t, placer.SeqPair))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		waitRecorded(t, h.s, j.ID)
	}
	for op, want := range map[string]float64{"result_get": 2, "result_put": 1, "job_put": 2, "job_get": 0} {
		if got := h.metric(`placed_store_seconds_count{op="` + op + `"}`); got != want {
			t.Errorf("op %s timed %g times, want %g", op, got, want)
		}
		if sum := h.metric(`placed_store_seconds_sum{op="` + op + `"}`); (sum > 0) != (want > 0) {
			t.Errorf("op %s timed %gs over %g calls", op, sum, want)
		}
	}
}

// blockingCache is a memory result cache whose first Get blocks until
// release is closed, standing in for a slow backend (a cold disk).
type blockingCache struct {
	store.ResultCache
	gets             atomic.Int64
	entered, release chan struct{}
}

func (c *blockingCache) Get(hash string) (*wire.Result, bool, error) {
	if c.gets.Add(1) == 1 {
		close(c.entered)
		<-c.release
	}
	return c.ResultCache.Get(hash)
}

// TestCacheLookupOutsideLock: a submit stuck in a slow result-cache
// lookup holds no scheduler lock, so metrics, job lookups and a submit
// of another problem all complete meanwhile.
func TestCacheLookupOutsideLock(t *testing.T) {
	c := &blockingCache{
		ResultCache: store.NewResultCache(store.NewMemory(8), 0),
		entered:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	s := New(Config{Workers: 1, Results: c})
	defer s.Close()
	first, second := millerRequest(t, placer.SeqPair), millerRequest(t, placer.SeqPair)
	second.Options.Seed = 2

	blocked := make(chan *Job, 1)
	go func() {
		j, _ := s.Submit(first)
		blocked <- j
	}()
	<-c.entered
	others := make(chan error, 1)
	go func() {
		s.Metrics()
		s.Job("job-1")
		_, err := s.Submit(second)
		others <- err
	}()
	select {
	case err := <-others:
		close(c.release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(c.release)
		t.Fatal("Metrics, Job or Submit waited on another submit's cache lookup")
	}
	if j := <-blocked; j == nil {
		t.Fatal("blocked submit failed")
	} else {
		waitJob(t, j)
	}
}
