package service

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// sortedKeys returns a map's keys sorted, so /metrics output is
// stable for tests and diffs.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram, chosen around the spread between a cache hit-adjacent
// small solve (milliseconds) and a large portfolio race (minutes).
// A fixed-size array keeps the counter array below sized in lockstep.
var latencyBuckets = [...]float64{0.005, 0.025, 0.1, 0.5, 2, 10, 60, 300}

// storeOp names a store operation whose backend errors the scheduler
// counts (and otherwise tolerates) in placed_store_errors_total.
type storeOp int

const (
	storeOpResultGet storeOp = iota
	storeOpResultPut
	storeOpJobPut
	storeOpJobGet
	numStoreOps
)

// storeOpNames are the op label values, indexed by storeOp.
var storeOpNames = [numStoreOps]string{"result_get", "result_put", "job_put", "job_get"}

// storeTimers accumulate each store operation's wall time and call
// count for placed_store_seconds. They are atomics, not metrics
// fields, so the store wrappers time themselves without s.mu.
type storeTimers struct {
	nanos, calls [numStoreOps]atomic.Int64
}

// observe records one op call that began at start.
func (t *storeTimers) observe(op storeOp, start time.Time) {
	t.nanos[op].Add(int64(time.Since(start)))
	t.calls[op].Add(1)
}

// metrics are the scheduler's counters; the scheduler mutates them
// under its own mutex.
type metrics struct {
	jobsQueued    int64 // gauge
	jobsRunning   int64 // gauge
	jobsDone      int64
	jobsFailed    int64
	jobsCancelled int64
	cacheHits     int64
	cacheMisses   int64
	coalesced     int64

	// Fault-tolerance counters.
	shed            int64 // submissions rejected with ErrQueueFull
	jobsDegraded    int64 // jobs solved with a pressure-shortened schedule
	jobsQuarantined int64 // jobs failed after repeated worker crashes
	workerCrashes   int64 // worker panics caught by supervisors (all slots)
	workerRestarts  int64 // worker slots restarted after backoff

	// storeErrors counts result-cache and job-store backend errors per
	// operation; the scheduler degrades past them (a miss, an unsaved
	// record) instead of failing the job.
	storeErrors [numStoreOps]int64

	latencyCount   int64
	latencySum     float64
	latencyBuckets [len(latencyBuckets) + 1]int64 // one per bound + +Inf
	// ewmaLatency is an exponentially weighted moving average of solve
	// latency (seconds) feeding Retry-After estimates; recent solves
	// dominate so the estimate tracks load shifts.
	ewmaLatency float64

	// Per-tenant admission counters, labelled by tenant id in /metrics.
	// Lazily allocated; tenantInc bounds the label cardinality.
	tenantAdmitted  map[string]int64 // solves admitted past the quota
	tenantThrottled map[string]int64 // submissions rejected with QuotaError
}

// maxTenantMetricLabels bounds the per-tenant label cardinality in
// /metrics; past it, new tenants are folded into the "other" label so
// an API-key scan cannot grow the exposition without bound (the quota
// buckets themselves have their own, larger bound).
const maxTenantMetricLabels = 256

// tenantInc bumps one tenant's counter in m (one of the maps above),
// capping label cardinality. Caller holds the scheduler's mutex.
func (m *metrics) tenantInc(counters *map[string]int64, tenant string) {
	if *counters == nil {
		*counters = make(map[string]int64)
	}
	c := *counters
	if _, ok := c[tenant]; !ok && len(c) >= maxTenantMetricLabels {
		tenant = "other"
	}
	c[tenant]++
}

func (m *metrics) observeLatency(seconds float64) {
	m.latencyCount++
	m.latencySum += seconds
	if m.latencyCount == 1 {
		m.ewmaLatency = seconds
	} else {
		m.ewmaLatency = 0.7*m.ewmaLatency + 0.3*seconds
	}
	for i, bound := range latencyBuckets {
		if seconds <= bound {
			m.latencyBuckets[i]++
		}
	}
	m.latencyBuckets[len(latencyBuckets)]++
}

// Metrics is a point-in-time snapshot of the scheduler's counters.
type Metrics struct {
	JobsQueued    int64
	JobsRunning   int64
	JobsDone      int64
	JobsFailed    int64
	JobsCancelled int64
	CacheHits     int64
	CacheMisses   int64
	Coalesced     int64
	CacheEntries  int64
	SolveCount    int64
	SolveSum      float64

	Shed               int64
	JobsDegraded       int64
	JobsQuarantined    int64
	WorkerCrashes      int64
	WorkerRestarts     int64
	CheckpointsSaved   int64
	CheckpointsResumed int64
	CheckpointEntries  int64

	// Per-tenant admission outcomes (nil when no tenant has hit the
	// path) and throttle rejections; see Config.TenantRate.
	TenantAdmitted  map[string]int64
	TenantThrottled map[string]int64

	// QueueDepth samples the scheduler's queue list directly (the
	// jobsQueued gauge tracks the same population through its counter
	// arithmetic; the two must agree when the scheduler is idle).
	QueueDepth int64
	// SolveLatencyEWMA is the smoothed solve latency (seconds) feeding
	// Retry-After estimates; 0 until a solve completes.
	SolveLatencyEWMA float64
}

// Metrics returns a snapshot of the scheduler's counters.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	snap := Metrics{
		JobsQueued:    s.metrics.jobsQueued,
		JobsRunning:   s.metrics.jobsRunning,
		JobsDone:      s.metrics.jobsDone,
		JobsFailed:    s.metrics.jobsFailed,
		JobsCancelled: s.metrics.jobsCancelled,
		CacheHits:     s.metrics.cacheHits,
		CacheMisses:   s.metrics.cacheMisses,
		Coalesced:     s.metrics.coalesced,
		SolveCount:    s.metrics.latencyCount,
		SolveSum:      s.metrics.latencySum,

		Shed:            s.metrics.shed,
		JobsDegraded:    s.metrics.jobsDegraded,
		JobsQuarantined: s.metrics.jobsQuarantined,
		WorkerCrashes:   s.metrics.workerCrashes,
		WorkerRestarts:  s.metrics.workerRestarts,

		QueueDepth:       int64(s.queue.len()),
		SolveLatencyEWMA: s.metrics.ewmaLatency,
	}
	snap.TenantAdmitted = copyCounters(s.metrics.tenantAdmitted)
	snap.TenantThrottled = copyCounters(s.metrics.tenantThrottled)
	s.mu.Unlock()
	// The stores are set once in New and have their own locks.
	if s.results != nil {
		if st, err := s.results.Stats(); err == nil {
			snap.CacheEntries = st.Entries
		}
	}
	snap.CheckpointsSaved, snap.CheckpointsResumed, snap.CheckpointEntries = s.checkpoints.Counters()
	return snap
}

// copyCounters snapshots a counter map (nil stays nil) so callers
// never alias the scheduler's live maps.
func copyCounters(src map[string]int64) map[string]int64 {
	if src == nil {
		return nil
	}
	out := make(map[string]int64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// WriteMetrics renders the scheduler's counters in the Prometheus
// text exposition format, served by /metrics.
func (s *Scheduler) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	m := s.metrics // scalar counters copy by value
	// The maps inside m alias the live ones; snapshot them.
	tenantAdmitted := copyCounters(s.metrics.tenantAdmitted)
	tenantThrottled := copyCounters(s.metrics.tenantThrottled)
	tenantDepths := s.queue.depths()
	qdepth := s.queue.len()
	perWorker := make([]int64, len(s.workerCrashes))
	copy(perWorker, s.workerCrashes)
	s.mu.Unlock()
	retryAfter := s.RetryAfter()
	var cacheStats, jobStats store.Stats
	if s.results != nil {
		cacheStats, _ = s.results.Stats()
	}
	jobStats, _ = s.jobstore.Stats()
	ckptSaved, ckptResumed, ckptEntries := s.checkpoints.Counters()

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP placed_jobs_total Solver jobs finished, by terminal state (cache-hit answers count only in placed_cache_hits_total).\n")
	p("# TYPE placed_jobs_total counter\n")
	p("placed_jobs_total{state=\"done\"} %d\n", m.jobsDone)
	p("placed_jobs_total{state=\"failed\"} %d\n", m.jobsFailed)
	p("placed_jobs_total{state=\"cancelled\"} %d\n", m.jobsCancelled)
	p("# HELP placed_jobs_queued Jobs waiting for a solver worker.\n")
	p("# TYPE placed_jobs_queued gauge\n")
	p("placed_jobs_queued %d\n", m.jobsQueued)
	p("# HELP placed_jobs_running Jobs currently solving.\n")
	p("# TYPE placed_jobs_running gauge\n")
	p("placed_jobs_running %d\n", m.jobsRunning)
	p("# HELP placed_cache_hits_total Submissions served from the result cache.\n")
	p("# TYPE placed_cache_hits_total counter\n")
	p("placed_cache_hits_total %d\n", m.cacheHits)
	p("# HELP placed_cache_misses_total Submissions that missed the result cache.\n")
	p("# TYPE placed_cache_misses_total counter\n")
	p("placed_cache_misses_total %d\n", m.cacheMisses)
	p("# HELP placed_coalesced_total Submissions coalesced onto an identical in-flight job.\n")
	p("# TYPE placed_coalesced_total counter\n")
	p("placed_coalesced_total %d\n", m.coalesced)
	p("# HELP placed_cache_entries Results currently cached.\n")
	p("# TYPE placed_cache_entries gauge\n")
	p("placed_cache_entries %d\n", cacheStats.Entries)
	p("# HELP placed_cache_bytes Serialized bytes held by the result cache backend.\n")
	p("# TYPE placed_cache_bytes gauge\n")
	p("placed_cache_bytes %d\n", cacheStats.Bytes)
	p("# HELP placed_job_records Terminal job records held by the job store backend.\n")
	p("# TYPE placed_job_records gauge\n")
	p("placed_job_records %d\n", jobStats.Entries)
	p("# HELP placed_shed_total Submissions rejected with queue-full load shedding (HTTP 429).\n")
	p("# TYPE placed_shed_total counter\n")
	p("placed_shed_total %d\n", m.shed)
	p("# HELP placed_jobs_degraded_total Jobs solved under deadline pressure with a shortened schedule.\n")
	p("# TYPE placed_jobs_degraded_total counter\n")
	p("placed_jobs_degraded_total %d\n", m.jobsDegraded)
	p("# HELP placed_jobs_quarantined_total Jobs failed after exceeding the worker-crash limit.\n")
	p("# TYPE placed_jobs_quarantined_total counter\n")
	p("placed_jobs_quarantined_total %d\n", m.jobsQuarantined)
	p("# HELP placed_worker_crashes_total Worker panics caught by the supervisors, per worker slot.\n")
	p("# TYPE placed_worker_crashes_total counter\n")
	for slot, n := range perWorker {
		p("placed_worker_crashes_total{worker=\"%d\"} %d\n", slot, n)
	}
	p("# HELP placed_worker_restarts_total Worker slots restarted after crash backoff.\n")
	p("# TYPE placed_worker_restarts_total counter\n")
	p("placed_worker_restarts_total %d\n", m.workerRestarts)
	p("# HELP placed_store_errors_total Result-cache and job-store backend errors, by operation; each degraded to a cache miss, an unsaved record or a 503.\n")
	p("# TYPE placed_store_errors_total counter\n")
	for op, n := range m.storeErrors {
		p("placed_store_errors_total{op=%q} %d\n", storeOpNames[op], n)
	}
	p("# HELP placed_store_seconds Wall time spent in result-cache and job-store calls, by operation.\n")
	p("# TYPE placed_store_seconds summary\n")
	for op, name := range storeOpNames {
		p("placed_store_seconds_sum{op=%q} %g\n", name, time.Duration(s.storeTime.nanos[op].Load()).Seconds())
		p("placed_store_seconds_count{op=%q} %d\n", name, s.storeTime.calls[op].Load())
	}
	p("# HELP placed_http_write_errors_total HTTP responses and SSE events that failed to encode (answered 500 or skipped) or to reach the client, by kind.\n")
	p("# TYPE placed_http_write_errors_total counter\n")
	for kind, name := range writeErrorKindNames {
		p("placed_http_write_errors_total{kind=%q} %d\n", name, s.httpWriteErrors[kind].Load())
	}
	p("# HELP placed_checkpoints_saved_total Best-so-far solver snapshots accepted into the checkpoint store.\n")
	p("# TYPE placed_checkpoints_saved_total counter\n")
	p("placed_checkpoints_saved_total %d\n", ckptSaved)
	p("# HELP placed_checkpoints_resumed_total Solves warm-started from a stored checkpoint.\n")
	p("# TYPE placed_checkpoints_resumed_total counter\n")
	p("placed_checkpoints_resumed_total %d\n", ckptResumed)
	p("# HELP placed_checkpoint_entries Content hashes with stored checkpoints.\n")
	p("# TYPE placed_checkpoint_entries gauge\n")
	p("placed_checkpoint_entries %d\n", ckptEntries)
	p("# HELP placed_queue_depth Jobs waiting in the scheduler's queue, sampled from the queue list itself (cross-check against placed_jobs_queued).\n")
	p("# TYPE placed_queue_depth gauge\n")
	p("placed_queue_depth %d\n", qdepth)
	p("# HELP placed_tenant_admitted_total Solves admitted past the tenant quota, by tenant.\n")
	p("# TYPE placed_tenant_admitted_total counter\n")
	for _, t := range sortedKeys(tenantAdmitted) {
		p("placed_tenant_admitted_total{tenant=%q} %d\n", t, tenantAdmitted[t])
	}
	p("# HELP placed_tenant_throttled_total Submissions rejected by the tenant admission quota (HTTP 429), by tenant.\n")
	p("# TYPE placed_tenant_throttled_total counter\n")
	for _, t := range sortedKeys(tenantThrottled) {
		p("placed_tenant_throttled_total{tenant=%q} %d\n", t, tenantThrottled[t])
	}
	p("# HELP placed_tenant_queue_depth Queued jobs per fair-queue tenant lane.\n")
	p("# TYPE placed_tenant_queue_depth gauge\n")
	for _, t := range sortedKeys(tenantDepths) {
		p("placed_tenant_queue_depth{tenant=%q} %d\n", t, tenantDepths[t])
	}
	p("# HELP placed_solve_latency_ewma_seconds Exponentially weighted moving average of solve wall-clock latency, the smoothing behind Retry-After.\n")
	p("# TYPE placed_solve_latency_ewma_seconds gauge\n")
	p("placed_solve_latency_ewma_seconds %g\n", m.ewmaLatency)
	p("# HELP placed_retry_after_seconds Current Retry-After estimate handed to shed clients.\n")
	p("# TYPE placed_retry_after_seconds gauge\n")
	p("placed_retry_after_seconds %g\n", retryAfter.Seconds())
	p("# HELP placed_solve_seconds Solve wall-clock latency.\n")
	p("# TYPE placed_solve_seconds histogram\n")
	for i, bound := range latencyBuckets {
		p("placed_solve_seconds_bucket{le=\"%g\"} %d\n", bound, m.latencyBuckets[i])
	}
	p("placed_solve_seconds_bucket{le=\"+Inf\"} %d\n", m.latencyBuckets[len(latencyBuckets)])
	p("placed_solve_seconds_sum %g\n", m.latencySum)
	p("placed_solve_seconds_count %d\n", m.latencyCount)
	return err
}
