// Chaos suite: randomized failpoint storms against the full HTTP
// surface. CI runs it under -race (go test -race -run Chaos); the
// assertions are the fault-tolerance contract — no wedged scheduler,
// no lost jobs (every accepted submission reaches a terminal state),
// and bit-identical results once the failpoints are disarmed.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/placer"
)

// chaosRequest is a deliberately tiny solve so a storm of them runs in
// test time; the deadline bounds injected stalls.
func chaosRequest(t *testing.T, seed int64) *wire.Request {
	t.Helper()
	req := millerRequest(t, placer.SeqPair)
	req.Options.Seed = seed
	req.Options.MovesPerStage = 20
	req.Options.MaxStages = 10
	req.Options.StallStages = 10
	req.Options.TimeoutMS = 400
	return req
}

// chaosSubmit POSTs one request, retrying injected 400s, shed 429s and
// drain 503s with a small backoff until the daemon accepts it — the
// content hash makes every retry idempotent. Returns the job id. It
// runs on client goroutines, so failures are errors, not t.Fatal.
func chaosSubmit(base string, req *wire.Request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	backoff := 5 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		var v JobView
		decErr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			if decErr != nil {
				return "", decErr
			}
			return v.ID, nil
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if attempt > 200 {
				return "", fmt.Errorf("request never accepted after %d attempts (last status %d)", attempt, resp.StatusCode)
			}
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		default:
			return "", fmt.Errorf("unexpected status %d", resp.StatusCode)
		}
	}
}

// TestChaosStorm arms every failpoint at once and drives concurrent
// clients through the HTTP API until each fault has fired at least
// ten times. Afterwards: every job is terminal, the scheduler drains
// cleanly, and the counters balance.
func TestChaosStorm(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(20260808)
	fault.Enable("scheduler/worker-panic", 0.25)
	fault.Enable("solve/slow", 0.25)
	fault.Enable("solve/error", 0.2)
	fault.Enable("wire/decode-err", 0.25)

	// Millisecond restart backoffs: at the defaults the storm's worker
	// panics spend half a minute in supervision sleeps, which prove
	// nothing TestRestartBackoff does not pin.
	s := New(Config{Workers: 4, QueueDepth: 128, PressureDepth: 8,
		restartBase: time.Millisecond, restartMax: 20 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	points := []string{"scheduler/worker-panic", "solve/slow", "solve/error", "wire/decode-err"}
	const wantFires = 10
	var (
		mu  sync.Mutex
		ids []string
	)
	seed := int64(0)
	deadline := time.Now().Add(3 * time.Minute)
	for round := 0; ; round++ {
		if time.Now().After(deadline) {
			for _, p := range points {
				t.Logf("%s: %d fires / %d evals", p, fault.Count(p), fault.Evals(p))
			}
			t.Fatal("storm deadline passed before every failpoint fired 10 times")
		}
		var wg sync.WaitGroup
		errc := make(chan error, 3)
		for g := 0; g < 3; g++ {
			wg.Add(1)
			base := seed + int64(g)*10
			reqs := make([]*wire.Request, 10)
			for k := range reqs {
				reqs[k] = chaosRequest(t, base+int64(k))
			}
			go func() {
				defer wg.Done()
				for _, r := range reqs {
					id, err := chaosSubmit(srv.URL, r)
					if err != nil {
						errc <- err
						return
					}
					mu.Lock()
					ids = append(ids, id)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		seed += 30
		done := true
		for _, p := range points {
			if fault.Count(p) < wantFires {
				done = false
			}
		}
		if done {
			break
		}
	}

	// No lost jobs: every accepted submission reaches a terminal state.
	// A job missing from the live table is terminal: it left for the
	// job store when it finished.
	jobDeadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			j, ok := s.Job(id)
			if !ok || j.State().Terminal() {
				break
			}
			if time.Now().After(jobDeadline) {
				t.Fatalf("job %s wedged in state %s under the storm", id, j.State())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for _, p := range points {
		if fault.Count(p) < wantFires {
			t.Errorf("failpoint %s fired %d times, want >= %d", p, fault.Count(p), wantFires)
		}
	}

	// No wedged scheduler: a storm-battered pool still drains.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("scheduler wedged: Close did not return")
	}

	m := s.Metrics()
	if m.JobsRunning != 0 || m.JobsQueued != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", m)
	}
	// The sampled queue gauge must agree with the counter-arithmetic
	// one — a storm of crashes, requeues and cancellations is exactly
	// when the two bookkeeping paths would drift apart.
	if m.QueueDepth != m.JobsQueued {
		t.Fatalf("queue depth gauge %d disagrees with jobs-queued counter %d after drain", m.QueueDepth, m.JobsQueued)
	}
	if m.SolveCount > 0 && m.SolveLatencyEWMA <= 0 {
		t.Fatalf("latency EWMA %g not positive after %d completed solves", m.SolveLatencyEWMA, m.SolveCount)
	}
	if m.WorkerCrashes < wantFires {
		t.Fatalf("worker crash counter %d below the panic fire count", m.WorkerCrashes)
	}
	t.Logf("storm: %d submissions, done=%d failed=%d cancelled=%d quarantined=%d degraded=%d shed=%d crashes=%d restarts=%d",
		len(ids), m.JobsDone, m.JobsFailed, m.JobsCancelled, m.JobsQuarantined, m.JobsDegraded, m.Shed, m.WorkerCrashes, m.WorkerRestarts)
}

// TestChaosTemperingStorm drives parallel-tempering jobs — exchanges
// every stage, so cancellation and injected faults land between
// exchange sweeps — through armed failpoints, cancelling half of them
// mid-flight. The contract: no wedged replica barrier (every job goes
// terminal), and the battered scheduler still drains.
func TestChaosTemperingStorm(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(7072026)
	fault.Enable("scheduler/worker-panic", 0.2)
	fault.Enable("solve/slow", 0.25)
	fault.Enable("solve/error", 0.15)

	s := New(Config{Workers: 4, QueueDepth: 128})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	client := srv.Client()
	var ids []string
	for k := 0; k < 24; k++ {
		req := chaosRequest(t, int64(9000+k))
		req.Options.TemperChains = 2 + k%3
		req.Options.ExchangeEvery = 1
		id, err := chaosSubmit(srv.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if k%2 == 0 {
			del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(del)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}

	// A job missing from the live table is terminal (see TestChaosStorm).
	jobDeadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			j, ok := s.Job(id)
			if !ok || j.State().Terminal() {
				break
			}
			if time.Now().After(jobDeadline) {
				t.Fatalf("tempering job %s wedged in state %s", id, j.State())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("scheduler wedged after tempering storm: Close did not return")
	}
	m := s.Metrics()
	if m.JobsRunning != 0 || m.JobsQueued != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", m)
	}
	t.Logf("tempering storm: %d submissions, done=%d failed=%d cancelled=%d crashes=%d",
		len(ids), m.JobsDone, m.JobsFailed, m.JobsCancelled, m.WorkerCrashes)
}

// TestChaosDeterminismFaultsOff pins the zero-cost-when-disabled
// claim end to end: with every failpoint disarmed, two fresh
// schedulers produce bit-identical placements for the same request.
func TestChaosDeterminismFaultsOff(t *testing.T) {
	fault.Reset()
	solve := func() *wire.Result {
		s := New(Config{Workers: 2})
		defer s.Close()
		req := millerRequest(t, placer.SeqPair)
		req.Options.Seed = 1234
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		res := waitJob(t, j)
		if j.State() != StateDone {
			t.Fatalf("faults-off solve ended %s: %s", j.State(), j.Err())
		}
		return res
	}
	a, b := solve(), solve()
	if a.Cost != b.Cost || len(a.Placement) != len(b.Placement) {
		t.Fatalf("faults-off solves diverged: cost %v vs %v", a.Cost, b.Cost)
	}
	for i := range a.Placement {
		if a.Placement[i] != b.Placement[i] {
			t.Fatalf("placement differs at %d: %+v vs %+v — disarmed failpoints must cost nothing and change nothing",
				i, a.Placement[i], b.Placement[i])
		}
	}
	// Byte-identical modulo wall-clock: RuntimeMS is elapsed time, the
	// one legitimately nondeterministic field on the wire result.
	a.RuntimeMS, b.RuntimeMS = 0, 0
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("wire results not byte-identical with faults off:\n%s\n%s", ja, jb)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosFleetStorm drives the fleet surface — batch submissions,
// SSE streams (half disconnected mid-flight), tenant quotas — under
// armed failpoints. The contract is the same as the plain storm: no
// wedged scheduler, every admitted job terminal, gauges balanced after
// drain; plus no SSE reader (connected or torn down mid-stream) may
// perturb or wedge a solve.
func TestChaosFleetStorm(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(20260809)
	fault.Enable("scheduler/worker-panic", 0.2)
	fault.Enable("solve/slow", 0.2)
	fault.Enable("solve/error", 0.15)

	s := New(Config{
		Workers: 4, QueueDepth: 128, PressureDepth: 16,
		TenantRate: 50, TenantBurst: 20, // high enough to admit the storm, real enough to exercise the bucket path
	})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	client := srv.Client()

	// batchSubmit POSTs one batch under a tenant, retrying whole-batch
	// 429s; per-item rejections are retried by resubmitting the batch
	// (identical items coalesce, so retries cost nothing extra).
	batchSubmit := func(tenant string, seeds []int64) ([]string, error) {
		var breq wire.BatchRequest
		for _, seed := range seeds {
			breq.Items = append(breq.Items, *chaosRequest(t, seed))
		}
		body := mustJSON(t, breq)
		backoff := 5 * time.Millisecond
		for attempt := 0; ; attempt++ {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/place:batch", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set(TenantHeader, tenant)
			resp, err := client.Do(req)
			if err != nil {
				return nil, err
			}
			var v BatchView
			decErr := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
				if resp.StatusCode == http.StatusTooManyRequests || decErr != nil || anyRejected(v) {
					if attempt > 200 {
						return nil, fmt.Errorf("batch never fully admitted after %d attempts", attempt)
					}
					time.Sleep(backoff)
					if backoff < 100*time.Millisecond {
						backoff *= 2
					}
					continue
				}
				ids := make([]string, 0, len(v.Jobs))
				for _, item := range v.Jobs {
					ids = append(ids, item.Job.ID)
				}
				return ids, nil
			case http.StatusServiceUnavailable:
				time.Sleep(backoff)
			default:
				return nil, fmt.Errorf("batch status %d", resp.StatusCode)
			}
		}
	}

	// streamJob attaches an SSE reader to a job; when tearDown is set it
	// disconnects after the first event instead of draining to done.
	streamJob := func(id string, tearDown bool) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stream of job %s: status %d", id, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		events := 0
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				events++
				if tearDown && events >= 1 {
					cancel() // mid-flight disconnect; the solve must not care
					return nil
				}
				if strings.TrimPrefix(line, "event: ") == "done" {
					return nil
				}
			}
		}
		return nil // server closed (job done) or context cancelled
	}

	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	tenants := []string{"storm-a", "storm-b", "storm-c"}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		tenant := tenants[g]
		base := int64(40000 + g*1000)
		go func() {
			defer wg.Done()
			for round := int64(0); round < 4; round++ {
				seeds := []int64{base + round*4, base + round*4 + 1, base + round*4 + 2, base + round*4 + 2} // one duplicate per batch
				got, err := batchSubmit(tenant, seeds)
				if err != nil {
					errc <- err
					return
				}
				mu.Lock()
				ids = append(ids, got...)
				mu.Unlock()
				// Stream every other batch's first job; tear half of the
				// streams down mid-flight.
				if err := streamJob(got[0], round%2 == 0); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every admitted job reaches a terminal state despite crashes,
	// stalls, injected errors and torn-down streams. A job missing from
	// the live table is terminal (see TestChaosStorm).
	jobDeadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			j, ok := s.Job(id)
			if !ok || j.State().Terminal() {
				break
			}
			if time.Now().After(jobDeadline) {
				t.Fatalf("fleet-storm job %s wedged in state %s", id, j.State())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("scheduler wedged after fleet storm: Close did not return")
	}
	m := s.Metrics()
	if m.JobsRunning != 0 || m.JobsQueued != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", m)
	}
	if m.QueueDepth != m.JobsQueued {
		t.Fatalf("queue depth gauge %d disagrees with jobs-queued counter %d after drain", m.QueueDepth, m.JobsQueued)
	}
	admitted := int64(0)
	for _, tenant := range tenants {
		admitted += m.TenantAdmitted[tenant]
	}
	if admitted == 0 {
		t.Fatal("no tenant admissions counted under the storm")
	}
	t.Logf("fleet storm: %d jobs, done=%d failed=%d cancelled=%d crashes=%d throttled=%v",
		len(ids), m.JobsDone, m.JobsFailed, m.JobsCancelled, m.WorkerCrashes, m.TenantThrottled)
}

// anyRejected reports whether a batch view contains a per-item
// rejection.
func anyRejected(v BatchView) bool {
	for _, item := range v.Jobs {
		if item.Job == nil {
			return true
		}
	}
	return false
}

// slowJobStore delays every record write by a millisecond.
type slowJobStore struct{ store.JobStore }

func (j slowJobStore) Put(rec *store.JobRecord) error {
	time.Sleep(time.Millisecond)
	return j.JobStore.Put(rec)
}

// lifecycleModel is TestChaosJobLifecycle's reference model of the job
// lifecycle, fed with every job view a client reads. Clients run
// concurrently, so an answer is only ordered after another when its
// request was sent after the other answer was received.
type lifecycleModel struct {
	mu       sync.Mutex
	hash     map[string]string    // id → content hash of the problem that minted it
	running  map[string]time.Time // id → when a running view was first received
	terminal map[string][]byte    // id → first terminal view body
	// terminalAt is when terminal[id] was received.
	terminalAt map[string]time.Time
	// requeues counts running → queued steps, the one step back a job
	// may take: a worker crash requeues it for retry.
	requeues int64
}

// observe checks one job view body, answering a request sent at sent,
// against the model: an id belongs to one problem, state never goes
// back from terminal, and every terminal view of an id is the same
// bytes — one terminal state, one result, whichever submitter,
// endpoint or job-store read produced it.
func (m *lifecycleModel) observe(body []byte, wantHash string, sent time.Time) error {
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("bad job view: %v\n%s", err, body)
	}
	received := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hash[v.ID]; ok && h != v.Hash {
		return fmt.Errorf("job %s changed hash %s → %s", v.ID, h, v.Hash)
	}
	if wantHash != "" && wantHash != v.Hash {
		return fmt.Errorf("submit of problem %s answered job %s of problem %s", wantHash, v.ID, v.Hash)
	}
	m.hash[v.ID] = v.Hash
	if at, ok := m.terminalAt[v.ID]; ok && !v.State.Terminal() && sent.After(at) {
		return fmt.Errorf("job %s went from terminal back to %s", v.ID, v.State)
	}
	switch v.State {
	case StateQueued:
		if at, ok := m.running[v.ID]; ok && sent.After(at) {
			m.requeues++
			delete(m.running, v.ID) // count each requeue once
		}
	case StateRunning:
		if _, ok := m.running[v.ID]; !ok {
			m.running[v.ID] = received
		}
	default:
		if first, ok := m.terminal[v.ID]; !ok {
			m.terminal[v.ID], m.terminalAt[v.ID] = body, received
		} else if !bytes.Equal(first, body) {
			return fmt.Errorf("job %s answered two terminal views:\n%s\n%s", v.ID, first, body)
		}
	}
	return nil
}

// isTerminal reports whether a terminal view of id was received.
func (m *lifecycleModel) isTerminal(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.terminal[id]
	return ok
}

// ids lists the ids seen so far.
func (m *lifecycleModel) ids() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.hash))
	for id := range m.hash {
		out = append(out, id)
	}
	return out
}

// TestChaosJobLifecycle drives the job lifecycle over the HTTP API
// with a seeded random mix of operations from concurrent clients —
// submits of a few repeated problems (so coalescing and cache hits
// happen), ?wait=1 submits, cancels, GETs, trace GETs and DELETEs —
// with worker panics armed at a low rate, and checks every answer
// against lifecycleModel. Beyond the model's checks: a client woken by
// ?wait=1 that GETs the id at once gets it; a trace GET answers 409
// only while the job is live; every id reaches exactly one terminal
// state (the terminal counters match the distinct ids); a GET sees
// running → queued no more often than workers crashed; and after the
// drain the gauges are zero, the live table is empty and every id —
// fewer than RetainJobs — answers 200 from the job store with its
// terminal bytes.
func TestChaosJobLifecycle(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(20261017)
	fault.Enable("scheduler/worker-panic", 0.15)

	// A slow record write widens the window between a job's done signal
	// and its move to the job store, where a lookup could fall through.
	jobs := slowJobStore{store.NewJobStore(store.NewMemory(1024), 0)}
	s := New(Config{Workers: 2, QueueDepth: 256, RetainJobs: 1024, Jobs: jobs})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	client := srv.Client()

	const nProblems = 12
	bodies := make([][]byte, nProblems)
	hashes := make([]string, nProblems)
	for k := range bodies {
		req := millerRequest(t, placer.SeqPair)
		req.Options.Seed = int64(k + 1)
		req.Options.MovesPerStage = 150
		bodies[k] = mustJSON(t, req)
		h, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[k] = h
	}
	model := &lifecycleModel{hash: map[string]string{}, running: map[string]time.Time{},
		terminal: map[string][]byte{}, terminalAt: map[string]time.Time{}}

	// do sends one request and reads the answer; sent is when it left.
	do := func(method, path string, body []byte) (code int, out []byte, sent time.Time, err error) {
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, sent, err
		}
		sent = time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, sent, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), sent, err
	}
	// step runs one random operation; ids are the ids this client knows.
	step := func(rng *rand.Rand, ids *[]string) error {
		pick := func() string { return (*ids)[rng.Intn(len(*ids))] }
		op := rng.Intn(100)
		if len(*ids) == 0 {
			op = 0
		}
		switch {
		case op < 35, op < 50: // submit, ?wait=1 for the second band
			k := rng.Intn(nProblems)
			path := "/v1/place"
			if op >= 35 {
				path += "?wait=1"
			}
			code, body, sent, err := do(http.MethodPost, path, bodies[k])
			if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
				return fmt.Errorf("POST %s: %d %v %s", path, code, err, body)
			}
			if err := model.observe(body, hashes[k], sent); err != nil {
				return err
			}
			var v JobView
			json.Unmarshal(body, &v)
			*ids = append(*ids, v.ID)
			if op >= 35 {
				if !v.State.Terminal() {
					return fmt.Errorf("?wait=1 answered %s", v.State)
				}
				code, body, sent, err := do(http.MethodGet, "/v1/jobs/"+v.ID, nil)
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("GET right after ?wait=1 of %s: %d %v %s", v.ID, code, err, body)
				}
				return model.observe(body, "", sent)
			}
		case op < 65: // GET
			id := pick()
			code, body, sent, err := do(http.MethodGet, "/v1/jobs/"+id, nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("GET %s: %d %v %s", id, code, err, body)
			}
			return model.observe(body, "", sent)
		case op < 75: // trace GET
			id := pick()
			wasTerminal := model.isTerminal(id)
			code, body, _, err := do(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
			switch {
			case err != nil:
				return err
			case code == http.StatusConflict && wasTerminal:
				return fmt.Errorf("trace of terminal job %s answered 409", id)
			case code != http.StatusOK && code != http.StatusNotFound && code != http.StatusConflict:
				return fmt.Errorf("trace of %s: %d %s", id, code, body)
			}
		case op < 85: // cancel through the scheduler API
			s.Cancel(pick())
		default: // DELETE
			id := pick()
			code, body, sent, err := do(http.MethodDelete, "/v1/jobs/"+id, nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("DELETE %s: %d %v %s", id, code, err, body)
			}
			return model.observe(body, "", sent)
		}
		return nil
	}

	const clients, steps = 3, 80
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var ids []string
			for i := 0; i < steps; i++ {
				if err := step(rng, &ids); err != nil {
					errc <- err
					return
				}
			}
		}(int64(1000 + c))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every id reaches a terminal state.
	ids := model.ids()
	deadline := time.Now().Add(time.Minute)
	for _, id := range ids {
		for {
			code, body, sent, err := do(http.MethodGet, "/v1/jobs/"+id, nil)
			if err != nil || code != http.StatusOK {
				t.Fatalf("GET %s: %d %v %s", id, code, err, body)
			}
			if err := model.observe(body, "", sent); err != nil {
				t.Fatal(err)
			}
			if model.isTerminal(id) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	s.Close()

	s.mu.Lock()
	live := len(s.jobs)
	s.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d jobs left in the live table after the drain", live)
	}
	if len(ids) >= s.cfg.RetainJobs {
		t.Fatalf("%d ids outgrow the job store's %d records", len(ids), s.cfg.RetainJobs)
	}
	var hits, solved int64
	for _, id := range ids {
		code, body, _, err := do(http.MethodGet, "/v1/jobs/"+id, nil)
		if err != nil || code != http.StatusOK || !bytes.Equal(body, model.terminal[id]) {
			t.Fatalf("job %s from the store after the drain: %d %v\n%s\nwant\n%s", id, code, err, body, model.terminal[id])
		}
		var v JobView
		json.Unmarshal(body, &v)
		if v.CacheHit {
			hits++
		} else {
			solved++
		}
	}
	m := s.Metrics()
	if m.JobsQueued != 0 || m.JobsRunning != 0 || m.QueueDepth != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", m)
	}
	if hits != m.CacheHits || solved != m.JobsDone+m.JobsFailed+m.JobsCancelled {
		t.Fatalf("%d hit ids and %d solver ids, but counters: %+v", hits, solved, m)
	}
	if model.requeues > m.WorkerCrashes {
		t.Fatalf("%d running → queued steps, only %d worker crashes to explain them", model.requeues, m.WorkerCrashes)
	}
	if m.CacheHits == 0 || m.Coalesced == 0 {
		t.Fatalf("the mix never hit the cache or coalesced: %+v", m)
	}
	t.Logf("lifecycle: %d ids, hits=%d coalesced=%d done=%d failed=%d cancelled=%d crashes=%d requeues seen=%d",
		len(ids), m.CacheHits, m.Coalesced, m.JobsDone, m.JobsFailed, m.JobsCancelled, m.WorkerCrashes, model.requeues)
}
