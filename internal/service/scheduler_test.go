package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
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

func TestSchedulerSolvesAndCaches(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	req := millerRequest(t, wire.MethodSeqPair)
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
	// cache round-trips entries through its store (possibly through
	// disk), so equality is by serialized value, not pointer identity.
	j2, err := s.Submit(millerRequest(t, wire.MethodSeqPair))
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
	req3 := millerRequest(t, wire.MethodSeqPair)
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

	// The cache-hit job id stays queryable like any other.
	if got, ok := s.Job(j2.ID); !ok || got != j2 {
		t.Fatalf("cache-hit job %s not in the job table", j2.ID)
	}
}

func TestSchedulerDeterministicAcrossRuns(t *testing.T) {
	run := func() *wire.Result {
		s := New(Config{Workers: 1})
		defer s.Close()
		j, err := s.Submit(millerRequest(t, wire.MethodSeqPair))
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
	queued, err := s.Submit(millerRequest(t, wire.MethodSeqPair))
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
	req := millerRequest(t, wire.MethodSeqPair)
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

// TestJobRetention: terminal jobs beyond RetainJobs are forgotten,
// queued/running jobs never are.
func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 2, RetainJobs: 2})
	defer s.Close()
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		req := millerRequest(t, wire.MethodSeqPair)
		req.Options.Seed = seed
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		ids = append(ids, j.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest terminal job still retained beyond the bound")
	}
	for _, id := range ids[1:] {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("job %s evicted while within the bound", id)
		}
	}
	// Eviction forgets the job record, not the solved result: the
	// content-addressed cache still answers.
	req := millerRequest(t, wire.MethodSeqPair)
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
	req := millerRequest(t, wire.MethodSeqPair)
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
	j, err := s.Submit(millerRequest(t, wire.MethodHBStar))
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

// TestStoreErrorsCounted: a job still succeeds when every store call
// fails, and each failed operation moves its
// placed_store_errors_total counter.
func TestStoreErrorsCounted(t *testing.T) {
	s := New(Config{Workers: 1, Results: failingStore{}, Jobs: failingJobStore{}})
	defer s.Close()
	j, err := s.Submit(millerRequest(t, wire.MethodSeqPair))
	if err != nil {
		t.Fatal(err)
	}
	if res := waitJob(t, j); j.State() != StateDone || res == nil {
		t.Fatalf("job state %s err %q", j.State(), j.Err())
	}
	// The record write follows the job's done signal; poll for it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var buf bytes.Buffer
		if err := s.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		missing := ""
		for _, op := range []string{"result_get", "result_put", "job_put"} {
			if !strings.Contains(buf.String(), `placed_store_errors_total{op="`+op+`"} 1`+"\n") {
				missing = op
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("op %s not counted once:\n%s", missing, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
