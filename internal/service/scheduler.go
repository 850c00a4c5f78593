// Package service is the placement-as-a-service layer over the
// paper's placers: a job scheduler with a bounded worker pool running
// the registry's engines, per-job context cancellation and deadlines,
// a content-addressed LRU cache of solved results keyed by the wire
// format's canonical hash, live progress readable while a job runs,
// and a portfolio mode that races representations on one problem.
// cmd/placed serves it over HTTP.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/placer"
)

// State is a job's lifecycle position.
type State string

// Job states. Terminal states are done, failed and cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is a live view of a running job, aggregated over the
// job's annealing chains (and, in portfolio mode, over its racers). A
// terminal job's record keeps the final one.
type Progress = store.Progress

// Job is one placement request moving through the scheduler. All
// fields are private behind accessors; jobs are safe for concurrent
// observation while they run.
type Job struct {
	ID   string
	Hash string

	// ikey is the in-flight coalescing key: the content hash plus the
	// request's deadline. Deadlines are excluded from Hash (a cached,
	// completed result is deadline-independent) but must separate
	// in-flight jobs — a deadline-free submitter must not be handed
	// another client's deadline-truncated best-so-far.
	ikey string

	mu        sync.Mutex
	state     State
	req       *wire.Request
	started   time.Time
	submitted time.Time
	// per-source progress: one source per annealing chain, keyed
	// "method#chain" — multi-start runs one per worker, portfolio mode
	// multiplies that by its racing methods.
	sources map[string]sourceProgress
	moves   int

	cancel context.CancelFunc
	done   chan struct{}

	// crashes counts worker panics this job caused (injected or
	// real); past Config.MaxJobCrashes the job is quarantined as
	// failed instead of wedging the pool with retries.
	crashes int
	// degraded marks a job solved under deadline pressure: the
	// schedule was shortened to shed load, so the result is not the
	// canonical one for the content hash and is never cached.
	degraded bool
	// faults names scheduler-level failpoints this job survived (or
	// died of) — worker panics, injected or real. They lead the served
	// flight recording as failpoint events, so the trace of a retried
	// job explains the retry.
	faults []string
	// span is the submitting request's span id (0 when the submitter
	// carried no span); the worker parents the job's solve spans under
	// it, bridging the trace across the queue.
	span uint64
	// tenant is the submitting tenant (see WithTenant): the fair-queue
	// lane the job waits in and the quota bucket it was charged to.
	// Immutable after Submit.
	tenant string
	// ring is the job's live flight recorder, replaced at the start of
	// every run attempt (so a crash retry's trace covers only the
	// attempt that produced the result, as before). SSE streams stage
	// events from it while the solve runs; guarded by j.mu.
	ring *obs.Flight

	// qelem is the job's slot in its fair-queue lane, guarded by the
	// scheduler's mutex (not j.mu); nil once popped or removed.
	qelem *list.Element

	// rec is the job's terminal form, sealed by Scheduler.finish; nil
	// while queued or running. The terminal accessors read it.
	rec *store.JobRecord
}

type sourceProgress struct {
	best  float64
	stage int
	temp  float64
	moves int
	seen  bool
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// record returns the job's terminal record, nil while it is queued or
// running.
func (j *Job) record() *store.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// CacheHit reports whether the job was served from the result cache.
func (j *Job) CacheHit() bool { return j.View().CacheHit }

// Result returns the job's result, nil until it reaches a terminal
// state (cancelled jobs still carry the best-so-far result).
func (j *Job) Result() *wire.Result { return j.View().Result }

// Trace returns the job's flight recording (see recordTrace). The
// boolean is false while the job is queued or running — recordings
// are served only for terminal jobs, whose traces are complete.
func (j *Job) Trace() (*wire.Trace, bool) {
	rec := j.record()
	if rec == nil {
		return nil, false
	}
	return recordTrace(rec), true
}

// recordTrace is the served flight recording of a terminal job: the
// result's recording, led by a failpoint event per worker crash the
// job caused, so the trace of a retried job explains the retry. It is
// nil when nothing was recorded (tracing disabled, a cache hit whose
// stored result predates tracing, an external engine) and no worker
// crashed.
func recordTrace(rec *store.JobRecord) *wire.Trace {
	var tr *wire.Trace
	if rec.Result != nil {
		tr = rec.Result.Trace
	}
	return withFailpoints(tr, rec.Faults)
}

// withFailpoints returns tr led by one failpoint event per point,
// marked outside any chain (worker and stage -1); tr is not modified.
func withFailpoints(tr *wire.Trace, points []string) *wire.Trace {
	if len(points) == 0 {
		return tr
	}
	merged := &wire.Trace{Version: wire.Version}
	if tr != nil {
		*merged = *tr
	}
	events := make([]wire.TraceEvent, 0, len(points)+len(merged.Events))
	for _, point := range points {
		events = append(events, wire.TraceEvent{Kind: wire.TraceKindFailpoint, Worker: -1, Stage: -1, Point: point})
	}
	merged.Events = append(events, merged.Events...)
	return merged
}

// Err returns the failure message of a failed job.
func (j *Job) Err() string { return j.View().Error }

// Degraded reports whether the job was solved under deadline
// pressure with a shortened annealing schedule.
func (j *Job) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Crashes reports how many worker panics the job has caused.
func (j *Job) Crashes() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashes
}

// Done returns a channel closed when the job reaches a terminal
// state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Ring returns the job's live flight recorder for incremental reads
// (obs.Flight.Since). It is nil until the job starts running (and
// with tracing disabled); a crash retry replaces it, so streaming
// readers must re-fetch and restart their cursor when the identity
// changes.
func (j *Job) Ring() *obs.Flight {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring
}

// Progress returns a live aggregate of the job's annealing progress,
// and a terminal job's final one. The boolean is false until the first
// stage completes.
func (j *Job) Progress() (Progress, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec != nil {
		if j.rec.Progress == nil {
			return Progress{}, false
		}
		return *j.rec.Progress, true
	}
	return j.progressLocked()
}

// progressLocked is Progress with j.mu held.
func (j *Job) progressLocked() (Progress, bool) {
	var p Progress
	any := false
	for _, src := range j.sources {
		if !src.seen {
			continue
		}
		if !any || src.best < p.BestCost {
			p.BestCost = src.best
		}
		if src.stage > p.Stage {
			p.Stage = src.stage
			p.Temp = src.temp // temperature pairs with the stage reported
		}
		any = true
	}
	p.Moves = j.moves
	if any && !j.started.IsZero() {
		if d := time.Since(j.started).Seconds(); d > 0 {
			p.MovesPerSec = float64(p.Moves) / d
		}
	}
	return p, any
}

// report folds one annealing stage snapshot into the live progress.
// A source is one annealing chain — keyed by (algorithm, chain id),
// so multi-start workers reporting cumulative per-chain stats never
// clobber each other — and keeping the per-source max stage and min
// cost makes the aggregate monotonic.
func (j *Job) report(p placer.Progress) {
	key := fmt.Sprintf("%s#%d", p.Algorithm, p.Worker)
	j.mu.Lock()
	defer j.mu.Unlock()
	src := j.sources[key]
	if !src.seen || p.Best < src.best {
		src.best = p.Best
	}
	if p.Stage > src.stage {
		src.stage = p.Stage
		src.temp = p.Temp
	}
	// Snapshots are cumulative per chain; count only the delta so sums
	// over chains stay exact.
	j.moves += p.Moves - src.moves
	if p.Moves > src.moves {
		src.moves = p.Moves
	}
	src.seen = true
	j.sources[key] = src
}

// Config tunes a Scheduler. The zero value is usable.
type Config struct {
	// Workers is the solver pool size — how many jobs run
	// concurrently. Default 2.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// Submit fails fast with ErrQueueFull beyond it. Default 64.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache (entries).
	// 0 means the default of 128; negative disables caching.
	CacheSize int
	// RetainJobs sizes the default in-memory job store: how many
	// terminal (done/failed/cancelled) job records stay queryable
	// through GET /v1/jobs/{id}, the least recently used forgotten
	// first. Solved jobs and cache-hit answers share the bound. Queued
	// and running jobs live in the scheduler's own table and are never
	// evicted. Unused when Jobs is set. Default 1024.
	RetainJobs int
	// MaxJobCrashes is how many worker panics (panics escaping the
	// contained solver path — scheduler bugs or injected faults) one
	// job may cause before it is quarantined as failed with the
	// captured stack; below the limit the job is requeued for retry.
	// Default 2; negative quarantines on the first crash.
	MaxJobCrashes int
	// PressureDepth is the queued-job depth at or beyond which new
	// solves enter deadline-pressure mode: the annealing schedule is
	// shortened (stage and stall bounds quartered) so the queue
	// drains instead of rejecting, and the degraded results are not
	// cached. 0 means half of QueueDepth; negative disables.
	PressureDepth int
	// TraceEvents is the per-job flight-recorder capacity handed to
	// the engines (see placer.WithTrace); a completed job serves its
	// recording on GET /v1/jobs/{id}/trace. Recording never changes
	// placements, so traced and untraced solves stay cache-compatible.
	// 0 means the placer default of 2048 events; negative disables
	// per-job tracing.
	TraceEvents int

	// Results overrides the content-addressed result cache backend.
	// Nil means an in-memory LRU of CacheSize entries (a file-backed
	// store shared between instances makes one instance's solve the
	// next one's cache hit — see internal/store). CacheSize only sizes
	// the default; an explicit backend brings its own bounds.
	Results store.ResultCache
	// Jobs overrides the job store, the only home of terminal jobs: a
	// job leaves the scheduler's live table once its record is written
	// here, and GET /v1/jobs/{id} answers finished jobs from it. Nil
	// means an in-memory store of RetainJobs entries; a durable backend
	// keeps records across restarts and shares them between instances.
	Jobs store.JobStore
	// Instance prefixes job ids ("<instance>-job-N") so two daemons
	// sharing a file-backed job store never collide. Empty keeps the
	// bare "job-N" (single-instance and test default). Job ids are
	// job-store keys, so the instance must pass ValidInstance.
	Instance string

	// TenantRate enables per-tenant token-bucket admission quotas:
	// each tenant (X-API-Key header, see WithTenant) may start
	// TenantRate solves/second sustained, bursting to TenantBurst.
	// Cache hits and coalesced submissions are free. 0 disables
	// quotas.
	TenantRate float64
	// TenantBurst is the bucket depth when quotas are enabled; values
	// below 1 mean 1.
	TenantBurst int

	// Worker supervision backoff: a crashed worker slot restarts after
	// an exponentially growing, jittered delay that starts at
	// restartBase and doubles up to restartMax, so a hot crash loop (a
	// poisoned queue, a scheduler bug) cannot spin the pool at 100%
	// CPU. New sets the defaults; only this package's tests shorten
	// them.
	restartBase, restartMax time.Duration
}

// ErrQueueFull is returned by Submit when the job queue is at
// capacity; clients should retry later.
var ErrQueueFull = fmt.Errorf("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = fmt.Errorf("service: scheduler closed")

// Scheduler runs placement jobs on a bounded worker pool with a
// content-addressed result cache.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job // live jobs: queued, running, or finishing
	inflight map[string]*Job // hash → queued/running job, for coalescing
	nextID   int
	closed   bool

	// queue is a per-tenant fair queue over lists, not a channel, so
	// cancelling a queued job frees its capacity immediately instead
	// of leaving a dead entry holding a slot until a worker drains it.
	// qcond (on mu) wakes workers.
	queue *fairQueue
	qcond *sync.Cond
	wg    sync.WaitGroup

	// The storage layer, all behind internal/store interfaces: the
	// scheduler never touches a concrete backend type.
	results     store.ResultCache
	jobstore    store.JobStore
	checkpoints *store.Checkpoints
	quotas      *quotas
	metrics     metrics
	storeTime   storeTimers
	// workerCrashes counts panics per worker slot (the supervisor
	// restarts the slot; the counter survives restarts), guarded by mu.
	workerCrashes []int64
	// memo maps accepted POST bodies to their content hashes; nil
	// without a result cache, which is all a memo match can answer
	// from.
	memo *bodyMemo
	// httpWriteErrors counts responses that failed to encode or to
	// write, indexed by writeErrorKind.
	httpWriteErrors [numWriteErrorKinds]atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New starts a scheduler with cfg's worker pool.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	switch {
	case cfg.MaxJobCrashes == 0:
		cfg.MaxJobCrashes = 2
	case cfg.MaxJobCrashes < 0:
		cfg.MaxJobCrashes = 0 // quarantine on the first crash
	}
	switch {
	case cfg.PressureDepth == 0:
		cfg.PressureDepth = max(1, cfg.QueueDepth/2)
	case cfg.PressureDepth < 0:
		cfg.PressureDepth = 0 // disabled
	}
	if cfg.restartBase <= 0 {
		cfg.restartBase = 25 * time.Millisecond
	}
	if cfg.restartMax <= 0 {
		cfg.restartMax = 5 * time.Second
	}
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	s := &Scheduler{
		cfg:           cfg,
		jobs:          make(map[string]*Job),
		inflight:      make(map[string]*Job),
		queue:         newFairQueue(),
		checkpoints:   store.NewCheckpoints(retainCheckpoints),
		workerCrashes: make([]int64, cfg.Workers),
	}
	s.qcond = sync.NewCond(&s.mu)
	// The storage layer: caller-provided backends win; otherwise
	// in-memory stores sized by the legacy knobs, so the default
	// scheduler behaves exactly as before the interfaces existed.
	switch {
	case cfg.Results != nil:
		s.results = cfg.Results
	case size > 0:
		s.results = store.NewResultCache(store.NewMemory(size), 0)
	}
	if s.results != nil {
		// The memo is bounded like the cache it answers from: a
		// remembered body whose result was evicted only costs a decode.
		entries := size
		if entries <= 0 {
			entries = defaultCacheSize // an explicit backend with CacheSize < 0
		}
		s.memo = newBodyMemo(entries, maxRequestBytes)
	}
	if cfg.Jobs != nil {
		s.jobstore = cfg.Jobs
	} else {
		s.jobstore = store.NewJobStore(store.NewMemory(cfg.RetainJobs), 0)
	}
	s.quotas = newQuotas(cfg.TenantRate, cfg.TenantBurst)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.supervise(i)
	}
	return s
}

// Submit validates and enqueues a request. Identical requests (same
// canonical hash) are served from the result cache without solving;
// while an identical job is still queued or running, Submit coalesces
// onto it instead of queueing a duplicate. Coalesced submitters share
// the job's whole fate — including a Cancel issued by any holder of
// its id — the same way they would share its cached result.
func (s *Scheduler) Submit(req *wire.Request) (*Job, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with a caller context used only for span
// parenting: when ctx carries an active obs span (the HTTP request's),
// the job's solve spans are parented under it across the queue. The
// context neither cancels nor bounds the job — a submitter going away
// must not kill a content-addressed job other clients may join.
func (s *Scheduler) SubmitCtx(ctx context.Context, req *wire.Request) (*Job, error) {
	// The normalized form is both the cache key and what Solve runs,
	// so two spellings of one problem share a hash and a placement.
	// Normalize is idempotent, never masks validity (an unsupported
	// version passes through for HashNormalized's Validate to
	// reject), and is already done for requests arriving via
	// DecodeRequest; Submit owns req.
	req.Problem.Normalize()
	req.Options.Normalize()
	hash, err := req.HashNormalized() // validates
	if err != nil {
		return nil, err
	}
	return s.submitHashed(ctx, req, hash)
}

// submitHashed is SubmitCtx for a request that is already validated
// and normalized, with hash its content hash (wire.DecodeRequestHash
// output).
func (s *Scheduler) submitHashed(ctx context.Context, req *wire.Request, hash string) (*Job, error) {
	// The cache is read before the lock is taken: a lookup copies a
	// whole result and may read disk.
	if cached, hit := s.cacheGet(hash); hit {
		return s.serveHit(ctx, hash, cached)
	}
	return s.admit(ctx, req, hash, false)
}

// submitMemoized submits a POST body the memo matched, with hash its
// remembered content hash. A cache hit needs no request at all; when
// the cache has evicted the result, the body is decoded again and
// submitted like a new one.
func (s *Scheduler) submitMemoized(ctx context.Context, body []byte, hash string) (*Job, error) {
	if cached, hit := s.cacheGet(hash); hit {
		return s.serveHit(ctx, hash, cached)
	}
	req, hash, err := wire.DecodeRequestHash(body)
	if err != nil {
		return nil, err
	}
	return s.submitHashed(ctx, req, hash)
}

// serveHit answers a submission from its cached result.
func (s *Scheduler) serveHit(ctx context.Context, hash string, cached *wire.Result) (*Job, error) {
	j, err := s.admit(ctx, nil, hash, true)
	if err != nil {
		return nil, err
	}
	// A cache hit is terminal from birth. It never enters the live
	// table, and finish writes its record before the id is handed out.
	s.finish(j, "", store.JobRecord{State: string(StateDone), CacheHit: true, Result: cached})
	return j, nil
}

// admit is the locked core of a submission: on a cache hit it only mints
// the job, on a miss it coalesces onto a live identical job or queues
// a new one. It checks closed and inflight under the lock, after the
// unlocked cache lookup; a miss that raced an identical job's cache
// write and slot release starts one redundant, deterministic solve.
func (s *Scheduler) admit(ctx context.Context, req *wire.Request, hash string, hit bool) (*Job, error) {
	tenant := TenantFrom(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if hit {
		// Cache hits count only in the cache counters — jobs_total
		// states tally actual solver outcomes. They are also
		// quota-free: the bucket protects solver capacity, and a hit
		// costs none.
		s.metrics.cacheHits++
		return s.newJobLocked(hash, tenant), nil
	}
	s.metrics.cacheMisses++
	// Coalesce only onto a live job with the same deadline (the ikey
	// includes it): a deadline-free submitter must not share a
	// deadline-truncated run.
	ikey := fmt.Sprintf("%s/%d", hash, req.Options.TimeoutMS)
	if running, ok := s.inflight[ikey]; ok {
		switch {
		case !running.State().Terminal():
			s.metrics.coalesced++
			return running, nil
		case running.State() == StateDone && running.Result() != nil && !running.Degraded():
			// Finished, but finish has not yet cached the result and
			// released the slot; the result is content-addressed, so
			// hand it back instead of re-solving. A degraded result is
			// never cached, so it is not handed back either.
			s.metrics.coalesced++
			return running, nil
		}
		// Cancelled or failed while still in the window: fall through
		// to a fresh solve — nobody wants to share a cancelled run.
	}
	// Tenant admission: charged only for work that would occupy a
	// solver, after the free paths above, before the queue bound.
	if s.quotas != nil {
		if ok, retry := s.quotas.take(tenant); !ok {
			s.metrics.tenantInc(&s.metrics.tenantThrottled, tenant)
			return nil, &QuotaError{Tenant: tenant, RetryAfter: retry}
		}
	}
	if s.queue.len() >= s.cfg.QueueDepth {
		// Explicit load shedding: the client gets ErrQueueFull (HTTP
		// 429 with a Retry-After derived from RetryAfter) and
		// resubmits later; the content hash makes the retry idempotent.
		s.metrics.shed++
		return nil, ErrQueueFull
	}
	j := s.newJobLocked(hash, tenant)
	j.req = req
	j.ikey = ikey
	j.span = obs.SpanID(ctx)
	j.state = StateQueued // must precede enqueue: a worker may pop it immediately
	s.jobs[j.ID] = j
	s.queue.push(j)
	s.inflight[ikey] = j
	s.metrics.jobsQueued++
	s.metrics.tenantInc(&s.metrics.tenantAdmitted, tenant)
	s.qcond.Signal()
	return j, nil
}

func (s *Scheduler) newJobLocked(hash, tenant string) *Job {
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	if s.cfg.Instance != "" {
		// Instance-prefixed ids keep two daemons sharing a job store
		// from overwriting each other's records.
		id = s.cfg.Instance + "-" + id
	}
	return &Job{
		ID:        id,
		Hash:      hash,
		tenant:    tenant,
		submitted: time.Now(),
		sources:   make(map[string]sourceProgress),
		done:      make(chan struct{}),
	}
}

// ValidInstance reports whether name can prefix job ids (see
// Config.Instance): every id "<name>-job-N" must be a valid job-store
// key, or every record write of the instance would fail.
func ValidInstance(name string) error {
	return store.ValidKey(fmt.Sprintf("%s-job-%d", name, math.MaxInt))
}

// Job returns a live job: queued, running, or finishing its record
// write. A finished job is answered by Record instead.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a live job. Queued jobs transition
// to cancelled immediately; running jobs stop at the next annealing
// stage boundary and keep their best-so-far placement (an esf/rsf job
// has none and ends cancelled without a result). Cancelling a
// terminal job is a no-op. The boolean reports whether the job is
// live.
func (s *Scheduler) Cancel(id string) bool {
	j, ok := s.Job(id)
	if ok {
		s.cancel(j)
	}
	return ok
}

// cancel is Cancel for a job the caller already holds. It loops only
// when a worker crash requeues the job between the two checks.
func (s *Scheduler) cancel(j *Job) {
	for !s.finish(j, StateQueued, store.JobRecord{State: string(StateCancelled)}) {
		j.mu.Lock()
		state, stop := j.state, j.cancel
		j.mu.Unlock()
		if state != StateQueued {
			if stop != nil { // the running solve's context; idempotent once it returned
				stop()
			}
			return
		}
	}
}

// Close stops accepting jobs, cancels running jobs, marks still-queued
// jobs cancelled, and waits for the workers to exit.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var drained []*Job
	for s.queue.len() > 0 {
		drained = append(drained, s.queue.pop())
	}
	s.qcond.Broadcast()
	s.mu.Unlock()
	for _, j := range drained {
		s.finish(j, StateQueued, store.JobRecord{State: string(StateCancelled)})
	}
	s.baseCancel()
	s.wg.Wait()
}

// defaultCacheSize is the result cache's default entry bound.
const defaultCacheSize = 128

// maxSolve is the server-side ceiling on one job's solve wall-clock:
// it caps the request's timeout_ms (and substitutes for an absent
// one), so a single maximal-schedule request cannot camp on a pool
// worker indefinitely. Hitting it cancels at the next stage boundary,
// keeping best-so-far.
const maxSolve = 10 * time.Minute

// retainCheckpoints bounds the checkpoint store (distinct content
// hashes with saved best-so-far solver state). Interrupted jobs —
// cancelled, deadline-expired, crashed — leave a checkpoint behind,
// and a resubmission of the identical request resumes annealing from
// it instead of restarting cold.
const retainCheckpoints = 64

// restartBackoff is one worker slot's restart delay (see
// Config.restartBase): it doubles after every crash up to max, and
// starts over after a crash that ended a long healthy run.
type restartBackoff struct {
	base, max, cur time.Duration
}

// next returns the delay before restarting a worker that crashed after
// running for ran: a uniform draw from [cur/2, cur], with cur reset to
// base first when the worker ran longer than four times max.
func (b *restartBackoff) next(ran time.Duration, rng *rand.Rand) time.Duration {
	if b.cur == 0 || ran > 4*b.max {
		// The first crash, or one after the worker ran healthily for a
		// while: treat it as fresh rather than part of a crash loop.
		b.cur = b.base
	}
	delay := b.cur/2 + time.Duration(rng.Int63n(int64(b.cur/2)+1))
	b.cur = min(2*b.cur, b.max)
	return delay
}

// supervise owns one worker slot: it runs the worker loop and, when
// the worker dies from a panic (real or injected), restarts it after
// a jittered exponential backoff. Crash and restart counters feed
// /metrics per slot. The supervisor exits when the worker returns
// cleanly (scheduler closed and drained) or the scheduler closes
// during backoff.
func (s *Scheduler) supervise(slot int) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(int64(slot)*7919 + 1)) // jitter only; not part of any reproducible run
	backoff := restartBackoff{base: s.cfg.restartBase, max: s.cfg.restartMax}
	for {
		started := time.Now()
		crashed := s.workerLoop()
		if !crashed {
			return // clean exit: closed and drained
		}
		s.mu.Lock()
		s.metrics.workerCrashes++
		s.workerCrashes[slot]++
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return // Close already cancels and drains; no restart needed
		}
		t := time.NewTimer(backoff.next(time.Since(started), rng))
		select {
		case <-s.baseCtx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		s.mu.Lock()
		s.metrics.workerRestarts++
		s.mu.Unlock()
	}
}

// workerLoop pops and runs queued jobs until the scheduler closes,
// reporting whether it exited by panic. A panic mid-job is accounted
// to that job by handleCrash — requeued for retry, or quarantined
// after repeated crashes — so one poisoned job cannot wedge the pool.
func (s *Scheduler) workerLoop() (crashed bool) {
	var cur *Job
	defer func() {
		if r := recover(); r != nil {
			crashed = true
			s.handleCrash(cur, r, debug.Stack())
		}
	}()
	s.mu.Lock()
	for {
		for s.queue.len() == 0 && !s.closed {
			s.qcond.Wait()
		}
		j := s.queue.pop()
		if j == nil {
			s.mu.Unlock()
			return false // closed and drained
		}
		s.mu.Unlock()
		cur = j
		s.run(j)
		cur = nil
		s.mu.Lock()
	}
}

// handleCrash rolls back a job whose worker died mid-run: early
// crashes requeue it at the queue head for a prompt retry; past
// Config.MaxJobCrashes (or during shutdown) it is quarantined as
// failed, carrying the panic value and the captured stack, so a
// reliably-crashing job reaches a terminal state instead of cycling
// through worker restarts forever.
func (s *Scheduler) handleCrash(j *Job, cause any, stack []byte) {
	if j == nil {
		return // crash outside a job (pop/bookkeeping); nothing to roll back
	}
	// Lock order s.mu → j.mu, same as Submit (which inspects a job's
	// state while holding the scheduler lock) and finish.
	s.mu.Lock()
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		s.mu.Unlock()
		return // already terminal (e.g. crash after the job finished)
	}
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.crashes++
	j.faults = append(j.faults, "scheduler/worker-panic")
	crashes := j.crashes
	retry := crashes <= s.cfg.MaxJobCrashes && !s.closed
	if retry {
		j.state = StateQueued
		s.metrics.jobsRunning--
		s.queue.pushFront(j) // head of its line: it already waited once
		s.metrics.jobsQueued++
		s.qcond.Signal()
	} else {
		s.metrics.jobsQuarantined++
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if !retry {
		s.finish(j, StateRunning, store.JobRecord{State: string(StateFailed),
			Error: fmt.Sprintf("service: worker panic (crash %d, quarantined): %v\n%s", crashes, cause, stack)})
	}
}

// run executes one job.
func (s *Scheduler) run(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock() // cancelled while queued
		return
	}
	// The server-side ceiling only; Solve itself applies the request's
	// own timeout_ms on top. The submitting request's span (if any)
	// re-parents here, bridging the trace across the queue hand-off.
	base := obs.ContextWithSpan(s.baseCtx, j.span)
	ctx, cancel := context.WithTimeout(base, maxSolve)
	ctx, jobSpan := obs.StartSpan(ctx, "job",
		obs.KV("id", j.ID), obs.Int("crashes", j.crashes))
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	req := j.req
	j.mu.Unlock()
	defer cancel()
	defer jobSpan.End()

	s.mu.Lock()
	s.metrics.jobsQueued--
	s.metrics.jobsRunning++
	depth := s.queue.len()
	s.mu.Unlock()

	// Deadline-pressure mode: with the queue deep, shorten the
	// annealing schedule instead of shedding — every waiting client
	// gets a (degraded, uncached) placement sooner and the queue
	// drains. The content hash was computed from the original options,
	// and degraded results never enter the cache under it. An engine
	// whose Info ignores the schedule (esf, rsf) is left alone.
	var extra []placer.Option
	info, _ := placer.Lookup(req.Options.Method)
	if s.cfg.PressureDepth > 0 && depth >= s.cfg.PressureDepth && !info.IgnoresSchedule {
		sched := req.Options.Schedule()
		sched.MaxStages = max(1, sched.MaxStages/4)
		sched.StallStages = max(1, sched.StallStages/4)
		extra = append(extra, placer.WithSchedule(sched))
		j.mu.Lock()
		firstDegrade := !j.degraded // a requeued crash retry counts once
		j.degraded = true
		j.mu.Unlock()
		if firstDegrade {
			s.mu.Lock()
			s.metrics.jobsDegraded++
			s.mu.Unlock()
		}
	}
	// Checkpoint/resume: the engines periodically save their best
	// snapshot under the job's content hash, and an identical
	// resubmission after an interruption resumes annealing from it.
	extra = append(extra, placer.WithCheckpoint(&jobCheckpointer{s: s, hash: j.Hash}))
	// Flight recording: every solve records into a job-owned ring
	// unless the daemon disabled tracing, so SSE streams can read stage
	// events live (obs.Flight.Since) while the solve runs. A fresh ring
	// per run attempt keeps a crash retry's trace scoped to the attempt
	// that produced the result; streaming readers detect the swap by
	// ring identity. The recording still rides the wire result and is
	// served by GET /v1/jobs/{id}/trace once the job is terminal.
	if s.cfg.TraceEvents >= 0 {
		ring := obs.NewFlight(s.cfg.TraceEvents)
		j.mu.Lock()
		j.ring = ring
		j.mu.Unlock()
		extra = append(extra, placer.WithRecorder(ring))
	}

	// Worker-crash failpoint: fires outside the contained solver
	// recover below (and outside any lock), so chaos tests exercise
	// the supervision path — handleCrash, backoff restart, quarantine.
	if fault.Point("scheduler/worker-panic") {
		panic(fmt.Sprintf("fault: injected worker panic running %s", j.ID))
	}

	res, err := func() (res *wire.Result, err error) {
		// The solver stack is reached by untrusted wire requests; a
		// panic on one pathological problem must fail that job, not
		// take down the daemon and every other job with it.
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("service: solver panic: %v", r)
			}
		}()
		return Solve(ctx, req, j.report, extra...)
	}()

	out := store.JobRecord{State: string(StateDone), Result: res}
	switch {
	case errors.Is(err, errCancelled):
		// An engine with no best-so-far (the esf/rsf enumeration)
		// answers cancellation with its context's error: the job was
		// cancelled, with no placement to keep.
		out = store.JobRecord{State: string(StateCancelled), Error: err.Error()}
	case err != nil:
		// The annealing engines return best-so-far with Cancelled set
		// instead, so any other solver error is a genuine failure and
		// keeps its real message, even if the deadline also expired
		// meanwhile.
		out = store.JobRecord{State: string(StateFailed), Error: err.Error()}
	case res.Cancelled:
		out.State = string(StateCancelled)
	}
	s.finish(j, StateRunning, out)
}

// finish is the one terminal transition, for every way a job ends: a
// cache hit, a cancel, Close draining the queue, a quarantining crash,
// a solve returning. It moves j from state from to out's outcome
// (State, Result, Error, CacheHit) and reports whether it did; a job
// no longer in state from is left alone, so each job ends exactly
// once. In order, it
//
//   - seals the job's record (out plus the finish time, final progress
//     and fault history), counts the state in the metrics and frees
//     the queue slot or running gauge;
//   - drops a canonical solve's checkpoint, then closes done;
//   - caches a canonical solve's result and writes the record, with no
//     lock held;
//   - releases the in-flight slot, after the cache write, so an
//     identical submit coalesces or hits the cache, and drops the job
//     from the live table, after the record write, so a client woken
//     by done never reads a 404.
//
// The caller holds neither lock; the lock order is s.mu → j.mu.
func (s *Scheduler) finish(j *Job, from State, out store.JobRecord) bool {
	s.mu.Lock()
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	state := State(out.State)
	j.state = state
	now := time.Now()
	j.req = nil // terminal jobs answer from their record, not the request body
	rec := &out
	rec.ID, rec.Hash = j.ID, j.Hash
	rec.Degraded, rec.Crashes, rec.Faults = j.degraded, j.crashes, j.faults
	if p, ok := j.progressLocked(); ok {
		rec.Progress = &p
	}
	rec.SubmittedMS, rec.FinishedMS = j.submitted.UnixMilli(), now.UnixMilli()
	j.rec = rec
	canonical := state == StateDone && !j.degraded && !rec.CacheHit
	latency := now.Sub(j.started).Seconds()
	j.mu.Unlock()
	switch from {
	case StateQueued:
		s.queue.remove(j) // free the queue slot right away
		s.metrics.jobsQueued--
	case StateRunning:
		s.metrics.jobsRunning--
		s.metrics.observeLatency(latency)
	}
	switch {
	case rec.CacheHit:
		// counted in cacheHits at admission
	case state == StateDone:
		s.metrics.jobsDone++
	case state == StateFailed:
		s.metrics.jobsFailed++
	case state == StateCancelled:
		s.metrics.jobsCancelled++
	}
	s.mu.Unlock()

	// A completed canonical solve retires its checkpoint — the result
	// cache answers future resubmissions. Interrupted (and degraded)
	// runs keep theirs, so the next identical request warm-starts.
	if canonical {
		s.checkpoints.Drop(j.Hash)
	}
	close(j.done)
	if canonical {
		s.cachePut(j.Hash, rec.Result)
	}
	s.persistJob(rec)

	s.mu.Lock()
	if s.inflight[j.ikey] == j {
		delete(s.inflight, j.ikey)
	}
	delete(s.jobs, j.ID)
	s.mu.Unlock()
	return true
}

// persistJob writes a terminal job's record to the job store, its only
// home once finish drops it from the live table. A failed write is
// counted (job_put) and otherwise tolerated: the waiters already hold
// the answer, but the id is forgotten. Called with no lock held.
func (s *Scheduler) persistJob(rec *store.JobRecord) {
	defer s.storeTime.observe(storeOpJobPut, time.Now())
	if err := s.jobstore.Put(rec); err != nil {
		s.countStoreError(storeOpJobPut)
	}
}

// Record returns the stored record of a finished job — this instance's
// or, on a shared durable store, another's. A backend failure is
// counted (job_get) and returned, so callers can tell "no such job"
// from "cannot tell".
func (s *Scheduler) Record(id string) (*store.JobRecord, bool, error) {
	defer s.storeTime.observe(storeOpJobGet, time.Now())
	rec, ok, err := s.jobstore.Get(id)
	if err != nil {
		s.countStoreError(storeOpJobGet)
	}
	return rec, ok, err
}

// cacheGet/cachePut guard the nil-cache case and count backend errors
// (a corrupt entry included) in placed_store_errors_total — a failing
// cache degrades to re-solving, never to failing the job. Callers hold
// no lock: a lookup copies a whole result and a file backend touches
// disk. Like persistJob and Record, they add their wall time to
// placed_store_seconds.
func (s *Scheduler) cacheGet(hash string) (*wire.Result, bool) {
	if s.results == nil {
		return nil, false
	}
	defer s.storeTime.observe(storeOpResultGet, time.Now())
	res, ok, err := s.results.Get(hash)
	if err != nil {
		s.countStoreError(storeOpResultGet)
	}
	if err != nil || !ok {
		return nil, false
	}
	return res, true
}

func (s *Scheduler) cachePut(hash string, res *wire.Result) {
	if s.results == nil {
		return
	}
	defer s.storeTime.observe(storeOpResultPut, time.Now())
	if err := s.results.Put(hash, res); err != nil {
		s.countStoreError(storeOpResultPut)
	}
}

// countStoreError counts one failed store operation.
func (s *Scheduler) countStoreError(op storeOp) {
	s.mu.Lock()
	s.metrics.storeErrors[op]++
	s.mu.Unlock()
}

// RetryAfter estimates how long a shed client should wait before
// resubmitting: the smoothed solve latency times the current backlog,
// divided over the worker pool — i.e. roughly when the queue will have
// drained a slot. Clamped to [1s, 5m] so the Retry-After header is
// always sane even before any latency sample exists.
func (s *Scheduler) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	ew := s.metrics.ewmaLatency
	if ew <= 0 {
		ew = 1 // no completed solve yet; assume a second each
	}
	backlog := s.queue.len() + int(s.metrics.jobsRunning)
	d := time.Duration(ew * float64(backlog) / float64(s.cfg.Workers) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// jobCheckpointer adapts the scheduler's checkpoint store
// (store.Checkpoints) to placer.Checkpointer for one job: saves and
// loads are keyed by the job's content hash plus the algorithm the
// engine reports.
type jobCheckpointer struct {
	s    *Scheduler
	hash string
}

func (c *jobCheckpointer) Save(algorithm string, snapshot any, cost float64, stage int) {
	c.s.checkpoints.Save(c.hash, algorithm, snapshot, cost, stage)
}

func (c *jobCheckpointer) Load(algorithm string) (any, float64, bool) {
	return c.s.checkpoints.Load(c.hash, algorithm)
}
