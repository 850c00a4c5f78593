// Command placed is the placement daemon: analog placement as a
// service over HTTP, backed by the job scheduler and the canonical
// wire format of internal/service and internal/wire.
//
// Usage:
//
//	placed [-addr :8080] [-solvers N] [-queue N] [-cache N]
//	       [-trace-events N] [-log-level info] [-store-dir DIR]
//	       [-instance NAME] [-tenant-rate R] [-tenant-burst N]
//	       [-obs] [-pprof]
//
// Endpoints:
//
//	POST   /v1/place            submit a wire.Request (JSON). Returns 202
//	                            with a job id; ?wait=1 blocks and returns
//	                            the finished job. Identical requests are
//	                            answered from the content-addressed result
//	                            cache, or coalesced onto the in-flight job.
//	POST   /v1/place:batch      submit a wire.BatchRequest ({"items": [...]}):
//	                            decoded and validated as one unit, fanned
//	                            into jobs with identical items coalesced
//	                            onto a single solve; ?wait=1 blocks until
//	                            every item is terminal.
//	GET    /v1/algorithms       the placer registry: every valid algorithm
//	                            string with its kind (flat/hierarchical)
//	                            and portfolio eligibility.
//	GET    /v1/jobs/{id}        job state, live progress (best cost, stage,
//	                            moves/sec) and, once terminal, the result.
//	                            With "Accept: text/event-stream": a live
//	                            SSE feed — flight-recorder events straight
//	                            from the solve's ring, progress snapshots,
//	                            and a final "done" event (a finished job
//	                            replays its recording).
//	GET    /v1/jobs/{id}/trace  the solve's flight recording: per-stage
//	                            annealing telemetry, replica exchanges,
//	                            checkpoint and failpoint events (409 until
//	                            the job is terminal; feed it to placetrace
//	                            for an SVG chart).
//	DELETE /v1/jobs/{id}        cancel: the job stops at the next annealing
//	                            stage boundary and keeps its best-so-far
//	                            placement, flagged as cancelled.
//	GET    /healthz             liveness probe.
//	GET    /metrics             Prometheus text metrics (jobs by state,
//	                            queue-depth and latency-EWMA gauges, cache
//	                            hit/miss, solve-latency histogram, worker
//	                            crash/restart and checkpoint counters).
//	GET    /debug/spans         with -obs: the span ring as JSON — timed
//	                            request → job → engine → anneal → stage
//	                            tree of recent solves.
//	GET    /debug/pprof/        with -pprof: the standard Go profiler.
//
// Observability: every solve carries a flight recorder (-trace-events
// sizes it; negative disables) whose recording is deterministic for a
// fixed seed and never perturbs the search. -obs additionally arms the
// span tracer, which timestamps the request/job/engine/anneal/stage
// hierarchy into a process-wide ring at nanosecond resolution; it is
// off by default so the annealing hot loop pays exactly one atomic
// load per stage.
//
// Fault tolerance: a full queue sheds load with 429 plus a Retry-After
// computed from the backlog; a deep queue shortens annealing schedules
// (results marked "degraded", never cached); interrupted jobs leave a
// checkpoint so identical resubmissions resume annealing warm; worker
// panics are supervised — the job retries or quarantines, the worker
// slot restarts with backoff. For chaos testing, PLACED_FAULTPOINTS
// (e.g. "scheduler/worker-panic=0.1,solve/slow=0.05") arms failpoints
// with per-evaluation probabilities and PLACED_FAULT_SEED makes the
// firing sequence deterministic; see internal/fault.
//
// Fleet: -store-dir backs the result cache and job records with
// file-backed stores under DIR (results/ and jobs/), so instances
// sharing the directory share solves — one daemon's result is the
// next one's cache hit, and job records survive restarts. -instance
// prefixes job ids so instances never collide (defaults to host-pid
// when -store-dir is set) and must be a valid store key (exit status
// 2 otherwise). -tenant-rate/-tenant-burst arm per-tenant
// token-bucket admission: the X-API-Key header names the tenant,
// over-quota submissions get 429 + Retry-After, and queued work is
// dequeued weighted-fair across tenants. See internal/store and
// internal/service.
//
// Try it:
//
//	placed -addr :8080 &
//	analogplace -bench miller -method seqpair -json-req - | \
//	  curl -s -X POST --data-binary @- 'localhost:8080/v1/place?wait=1'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	solvers := flag.Int("solvers", 2, "solver worker pool size (concurrent jobs)")
	queue := flag.Int("queue", 64, "queued-job bound; beyond it POST sheds load with 429 + Retry-After")
	cache := flag.Int("cache", 128, "result cache entries (0 disables caching)")
	traceEvents := flag.Int("trace-events", 0, "per-job flight-recorder capacity in events (0 = default 2048, negative disables tracing)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	storeDir := flag.String("store-dir", "", "back the result cache and job records with file stores under this directory (shared between instances)")
	instance := flag.String("instance", "", "job-id prefix distinguishing instances on a shared -store-dir (default host-pid when -store-dir is set)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission quota in solves/second (X-API-Key names the tenant; 0 disables quotas)")
	tenantBurst := flag.Int("tenant-burst", 10, "per-tenant token-bucket burst when -tenant-rate is set")
	obsOn := flag.Bool("obs", false, "arm the span tracer and serve /debug/spans")
	pprofOn := flag.Bool("pprof", false, "serve the Go profiler under /debug/pprof/")
	flag.Parse()
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "placed: -log-level %q: want debug, info, warn or error\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "placed: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *solvers < 1 || *queue < 1 {
		fmt.Fprintln(os.Stderr, "placed: -solvers and -queue must be at least 1")
		os.Exit(2)
	}

	armed, err := fault.EnableFromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "placed: %s: %v\n", fault.EnvVar, err)
		os.Exit(2)
	}
	if len(armed) > 0 {
		logger.Warn("CHAOS MODE — failpoints armed", "points", armed)
	}
	if *obsOn {
		obs.Enable()
	}

	// Job records are stored under "<instance>-job-N" ids.
	inst := *instance
	if inst == "" && *storeDir != "" {
		inst = defaultInstance()
	}
	if err := service.ValidInstance(inst); err != nil {
		fmt.Fprintf(os.Stderr, "placed: -instance %q: %v\n", inst, err)
		os.Exit(2)
	}

	cacheSize := *cache
	if cacheSize <= 0 {
		cacheSize = -1 // flag 0 means off; Config 0 would mean the default
	}
	cfg := service.Config{
		Workers:     *solvers,
		QueueDepth:  *queue,
		CacheSize:   cacheSize,
		TraceEvents: *traceEvents,
		Instance:    inst,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
	}
	if *storeDir != "" {
		rs, err := store.NewFile(filepath.Join(*storeDir, "results"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "placed: -store-dir: %v\n", err)
			os.Exit(2)
		}
		js, err := store.NewFile(filepath.Join(*storeDir, "jobs"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "placed: -store-dir: %v\n", err)
			os.Exit(2)
		}
		if cacheSize > 0 {
			cfg.Results = store.NewResultCache(rs, 0)
		}
		cfg.Jobs = store.NewJobStore(js, 0)
		logger.Info("file-backed stores", "dir", *storeDir, "instance", cfg.Instance)
	}
	sched := service.New(cfg)

	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(sched))
	if *obsOn {
		mux.HandleFunc("GET /debug/spans", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(obs.Spans())
		})
	}
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Addr: *addr, Handler: accessLog(logger, mux)}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "solvers", *solvers, "queue", *queue,
		"cache", *cache, "trace_events", *traceEvents, "log_level", level.String(),
		"tenant_rate", *tenantRate, "obs", *obsOn, "pprof", *pprofOn)

	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		// Close the scheduler first: it cancels running jobs, which
		// unblocks ?wait=1 handlers with best-so-far results, so
		// Shutdown can actually drain them inside its window.
		sched.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	}
}

// defaultInstance names an instance on a shared -store-dir: host-pid
// is unique enough without coordination.
func defaultInstance() string {
	host, _ := os.Hostname()
	if host == "" {
		host = "placed"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE job streams keep
// flushing through the access-log wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// accessLog wraps the API with structured per-request logging: method,
// path, status and wall-clock, through the same slog logger as the
// daemon's lifecycle messages. Successful requests log at debug (a
// load test at 64 clients must not drown the terminal at the default
// info level), client errors at info, server errors at warn.
func accessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		level := slog.LevelDebug
		switch {
		case sw.status >= 500:
			level = slog.LevelWarn
		case sw.status >= 400:
			level = slog.LevelInfo
		}
		logger.Log(r.Context(), level, "request", "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "dur", time.Since(start).Round(time.Microsecond).String())
	})
}
