package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/wire"
	"repro/placer"
)

// slowRequest is a solve that cannot finish on its own inside a test's
// patience: a near-flat cooling schedule with enormous stage bounds,
// so only a deadline or a cancel ends it.
func slowRequest(t *testing.T, seed int64) *wire.Request {
	t.Helper()
	return &wire.Request{Problem: *benchProblem(t, "buffer"), Options: wire.Options{
		Method: placer.SeqPair, MovesPerStage: 400, MaxStages: 100000, StallStages: 100000,
		Cooling: 0.9999, Seed: seed,
	}}
}

// TestResumeFromCheckpoint pins the tentpole resume guarantee: a
// deadline-expired job keeps its best-so-far result, and resubmitting
// the identical request (same content hash) resumes annealing from
// the stored checkpoint, finishing with a cost no worse than the
// interrupted run's best.
func TestResumeFromCheckpoint(t *testing.T) {
	s := New(Config{Workers: 1, PressureDepth: -1})
	defer s.Close()

	req := slowRequest(t, 7)
	req.Options.TimeoutMS = 300
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res1 := waitJob(t, j1)
	if j1.State() != StateCancelled {
		t.Fatalf("deadline-bounded job ended %s (err %q), want cancelled", j1.State(), j1.Err())
	}
	if res1 == nil || !res1.Cancelled {
		t.Fatalf("interrupted job lost its best-so-far result: %+v", res1)
	}
	if m := s.Metrics(); m.CheckpointsSaved == 0 || m.CheckpointEntries == 0 {
		t.Fatalf("interrupted run left no checkpoint: %+v", m)
	}

	// Identical request, longer deadline: TimeoutMS is excluded from
	// the content hash, so this resumes the same checkpoint instead of
	// restarting cold, and its best can only improve on the stored one.
	req2 := slowRequest(t, 7)
	req2.Options.TimeoutMS = 1200
	j2, err := s.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	res2 := waitJob(t, j2)
	if res2 == nil {
		t.Fatalf("resumed job %s lost its result (err %q)", j2.State(), j2.Err())
	}
	if res2.Cost > res1.Cost {
		t.Fatalf("resume regressed: interrupted best %v, resumed final %v", res1.Cost, res2.Cost)
	}
	if m := s.Metrics(); m.CheckpointsResumed == 0 {
		t.Fatalf("second run never consulted the checkpoint: %+v", m)
	}
}

// TestCheckpointDroppedAfterDone: a solve that completes canonically
// retires its checkpoint — the result cache answers resubmissions.
func TestCheckpointDroppedAfterDone(t *testing.T) {
	s := New(Config{Workers: 1, PressureDepth: -1})
	defer s.Close()
	j, err := s.Submit(millerRequest(t, placer.SeqPair))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateDone {
		t.Fatalf("job ended %s: %s", j.State(), j.Err())
	}
	if m := s.Metrics(); m.CheckpointEntries != 0 {
		t.Fatalf("completed solve left %d checkpoint entries", m.CheckpointEntries)
	}
}

// TestWorkerPanicQuarantine: with the worker-panic failpoint always
// firing and a zero-crash budget, the job is quarantined as failed
// with the captured stack — and the restarted worker slot then serves
// the next job normally.
func TestWorkerPanicQuarantine(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(1)
	fault.Enable("scheduler/worker-panic", 1)
	s := New(Config{Workers: 1, MaxJobCrashes: -1})
	defer s.Close()

	j, err := s.Submit(millerRequest(t, placer.SeqPair))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateFailed {
		t.Fatalf("crashed job ended %s, want failed", j.State())
	}
	if j.Crashes() != 1 {
		t.Fatalf("crash count %d, want 1 (quarantine on first crash)", j.Crashes())
	}
	msg := j.Err()
	for _, want := range []string{"worker panic", "quarantined", "injected worker panic", "workerLoop"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Fatalf("quarantine error missing %q:\n%s", want, msg)
		}
	}

	fault.Reset()
	j2, err := s.Submit(millerRequest(t, placer.HBStar))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("restarted worker failed the next job: %s (%s)", j2.State(), j2.Err())
	}
	m := s.Metrics()
	if m.JobsQuarantined != 1 || m.WorkerCrashes != 1 {
		t.Fatalf("quarantine counters: %+v", m)
	}
	if m.WorkerRestarts < 1 {
		t.Fatalf("worker slot never restarted: %+v", m)
	}
}

// TestWorkerCrashRequeue: below the crash budget the job is requeued
// and, once the fault clears, completes on a restarted worker.
func TestWorkerCrashRequeue(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(2)
	fault.Enable("scheduler/worker-panic", 1)
	s := New(Config{Workers: 2, MaxJobCrashes: 1000})
	defer s.Close()

	j, err := s.Submit(millerRequest(t, placer.SeqPair))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.Crashes() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("job never crashed twice (crashes=%d)", j.Crashes())
		}
		time.Sleep(2 * time.Millisecond)
	}
	fault.Disable("scheduler/worker-panic")
	waitJob(t, j)
	if j.State() != StateDone {
		t.Fatalf("requeued job ended %s: %s", j.State(), j.Err())
	}
	if j.Crashes() < 2 {
		t.Fatalf("crash counter lost requeues: %d", j.Crashes())
	}
	if m := s.Metrics(); m.WorkerCrashes < 2 || m.JobsQuarantined != 0 {
		t.Fatalf("requeue counters: %+v", m)
	}
}

// TestPressureModeDegrades: when the queue is at or past
// PressureDepth as a job starts, its schedule is shortened, the
// result is flagged degraded, and it never enters the result cache.
func TestPressureModeDegrades(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, PressureDepth: 1})
	defer s.Close()

	blocker, err := s.Submit(slowRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b := millerRequest(t, placer.SeqPair)
	b.Options.Seed = 41
	jb, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	c := millerRequest(t, placer.SeqPair)
	c.Options.Seed = 42
	if _, err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	s.Cancel(blocker.ID)
	waitJob(t, blocker)

	// jb starts with c still queued behind it → pressure mode.
	waitJob(t, jb)
	if jb.State() != StateDone {
		t.Fatalf("degraded job ended %s: %s", jb.State(), jb.Err())
	}
	if !jb.Degraded() {
		t.Fatal("job run under queue pressure not flagged degraded")
	}

	// Quiet now: the identical request must re-solve (the degraded
	// result was not cached) and come back canonical.
	b2 := millerRequest(t, placer.SeqPair)
	b2.Options.Seed = 41
	j2, err := s.Submit(b2)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	if j2.CacheHit() {
		t.Fatal("degraded result leaked into the result cache")
	}
	if j2.Degraded() {
		t.Fatal("job solved on a quiet scheduler flagged degraded")
	}
	if m := s.Metrics(); m.JobsDegraded < 1 {
		t.Fatalf("degraded counter: %+v", m)
	}
}

// fixedEngine is an externally registered engine that states its
// capabilities the way esf and rsf do: it ignores the schedule, takes
// at most nine modules and refuses the thermal term. It lays the
// modules out in a row, a result no schedule changes.
type fixedEngine struct{}

const fixedName = "x-test-fixed"

func init() {
	placer.Register(placer.Info{Name: fixedName, IgnoresSchedule: true, MaxModules: 9, Refuses: []string{"thermal"}},
		func() placer.Engine { return fixedEngine{} })
}

func (fixedEngine) Solve(_ context.Context, p *placer.Problem, _ placer.EngineOptions) (*placer.Result, error) {
	res := &placer.Result{Algorithm: fixedName, Legal: true}
	x := 0
	for _, m := range p.Modules {
		res.Placement = append(res.Placement, placer.Placed{Name: m.Name, X: x, W: m.W, H: m.H})
		x += m.W
	}
	return res, nil
}

// TestPressureModeSkipsShapeEngines: an engine whose Info says it
// ignores the schedule — esf, or one registered from outside — keeps
// its result whole, unflagged and cached under queue pressure.
func TestPressureModeSkipsShapeEngines(t *testing.T) {
	for _, method := range []string{placer.ESF, fixedName} {
		t.Run(method, func(t *testing.T) {
			s := New(Config{Workers: 1, QueueDepth: 8, PressureDepth: 1})
			defer s.Close()

			blocker, err := s.Submit(slowRequest(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			jb, err := s.Submit(millerRequest(t, method))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit(millerRequest(t, placer.SeqPair)); err != nil {
				t.Fatal(err)
			}
			s.Cancel(blocker.ID)
			waitJob(t, blocker)

			// jb starts with the seqpair job still queued behind it.
			waitJob(t, jb)
			if jb.State() != StateDone || jb.Degraded() {
				t.Fatalf("%s job under queue pressure ended %s, degraded %v: %s", method, jb.State(), jb.Degraded(), jb.Err())
			}
			waitRecorded(t, s, jb.ID)
			j2, err := s.Submit(millerRequest(t, method))
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, j2)
			if !j2.CacheHit() {
				t.Fatalf("%s result solved under queue pressure was not cached", method)
			}
		})
	}
}

// TestRegisteredLimitsRefuseBeforeQueuing: the ceiling and refused
// term an external engine states in its Info fail wire validation, so
// the daemon answers 400 and never queues the job.
func TestRegisteredLimitsRefuseBeforeQueuing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	over := millerRequest(t, fixedName)
	over.Problem.Modules = append(over.Problem.Modules, placer.Module{Name: "X", W: 1, H: 1})
	thermal := millerRequest(t, fixedName)
	thermal.Problem.Objective.ThermalWeight = 1
	for fact, req := range map[string]*wire.Request{"at most 9 modules": over, "the thermal term": thermal} {
		err := req.Validate()
		if err == nil || !strings.Contains(err.Error(), fact) {
			t.Fatalf("wire.Request.Validate: got %v, want an error naming %q", err, fact)
		}
		// The refusal is worded from the fake's Info alone: nothing in
		// it says how the engine places (esf and rsf minimize
		// bounding-box area; the fake lays modules in a row).
		if strings.Contains(err.Error(), "bounding-box area") {
			t.Errorf("wire.Request.Validate: %q describes another engine", err)
		}
		want := err.Error()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.Post(srv.URL+"/v1/place?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(res.Body).Decode(&msg)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusBadRequest || msg.Error != want {
			t.Errorf("daemon answered %d %q (%v), want 400 %q", res.StatusCode, msg.Error, err, want)
		}
	}
	if m := s.Metrics(); m.JobsQueued+m.JobsRunning+m.JobsDone+m.JobsFailed+m.CacheMisses != 0 {
		t.Errorf("a refused request reached the scheduler: %+v", m)
	}
}

// TestLoadSheddingRetryAfter: a full queue answers HTTP 429 with a
// positive integer Retry-After header.
func TestLoadSheddingRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, PressureDepth: -1})
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	blocker, err := s.Submit(slowRequest(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Cancel(blocker.ID); waitJob(t, blocker) }()
	time.Sleep(50 * time.Millisecond) // let the one worker pick it up

	var resp *http.Response
	for seed := int64(10); seed < 20; seed++ {
		r := slowRequest(t, seed)
		resp = postRaw(t, srv.URL, r)
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		resp.Body.Close()
		resp = nil
	}
	if resp == nil {
		t.Fatal("queue never shed load with 429")
	}
	defer resp.Body.Close()
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if m := s.Metrics(); m.Shed < 1 {
		t.Fatalf("shed counter: %+v", m)
	}
}

// TestDrainOrdering pins graceful shutdown: once draining begins,
// late POSTs are refused with 503 while the in-flight job still
// completes (best-so-far kept) before Close returns.
func TestDrainOrdering(t *testing.T) {
	s := New(Config{Workers: 1, PressureDepth: -1})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// A long stage: the worker only observes cancellation at stage
	// boundaries, so Close stays in its drain wait long enough for the
	// 503 probe below to land during it.
	// slowRequest's stages run for hundreds of milliseconds on this
	// bench; cancellation lands at a stage boundary, so once annealing
	// is underway Close stays draining for most of a stage.
	long := slowRequest(t, 3)
	j, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait past engine setup (temperature calibration observes no
	// context) into real annealing before starting the drain.
	for {
		if p, ok := j.Progress(); ok && p.Stage >= 1 {
			break
		}
		if j.State().Terminal() {
			t.Fatalf("long job ended %s before annealing: %s", j.State(), j.Err())
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()

	var got503 bool
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp := postRaw(t, srv.URL, slowRequest(t, 99))
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			got503 = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !got503 {
		t.Fatal("draining scheduler never refused a late POST with 503")
	}
	select {
	case <-closed:
		t.Fatal("drain finished before the late POST was refused — ordering not pinned")
	default:
	}

	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("Close wedged waiting for the in-flight job")
	}
	if j.State() != StateCancelled {
		t.Fatalf("in-flight job ended %s across the drain, want cancelled", j.State())
	}
	if j.Result() == nil {
		t.Fatal("drained job lost its best-so-far result")
	}
}

// TestPortfolioCancelNoGoroutineLeak: cancelling mid-portfolio-race
// must wind down every racer; the process goroutine count returns to
// its pre-job level.
func TestPortfolioCancelNoGoroutineLeak(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	before := runtime.NumGoroutine()

	req := slowRequest(t, 5)
	req.Options.Method = wire.MethodPortfolio
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for { // wait until the race is actually running goroutines
		if _, ok := j.Progress(); ok {
			break
		}
		if j.State().Terminal() {
			t.Fatalf("portfolio ended %s before progress: %s", j.State(), j.Err())
		}
		time.Sleep(time.Millisecond)
	}
	s.Cancel(j.ID)
	waitJob(t, j)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after portfolio cancel: %d > %d\n%s",
				runtime.NumGoroutine(), before+2, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// postRaw POSTs a wire request and returns the raw HTTP response.
func postRaw(t *testing.T, base string, req *wire.Request) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
