package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wire"
)

// placed's defaults: the daemon the benchmark embeds is configured
// the way `placed` starts with no flags.
const (
	daemonSolvers     = 2
	daemonQueue       = 64
	daemonCache       = 128
	daemonTraceEvents = 2048
	// daemonRetainJobs is the scheduler's default job-record bound,
	// spelled out because the benchmark builds the job store itself.
	daemonRetainJobs = 1024
)

// requestTimeout bounds one request; a request that runs into it
// fails.
const requestTimeout = 60 * time.Second

// daemon is an embedded placement daemon: service.New behind
// service.NewHandler on a loopback listener, with timing decorators
// around its result and job stores.
type daemon struct {
	sched   *service.Scheduler
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
	results *timedResults
	jobs    *timedJobs
	dir     string // file-store root, removed by close
}

// startDaemon starts a daemon. With fileDir set, results and job
// records live in file stores under it (what `placed -store-dir`
// mounts); otherwise in the default memory stores.
func startDaemon(tr *tracer, fileDir string) (*daemon, error) {
	d := &daemon{dir: fileDir, served: make(chan error, 1)}
	var rs store.ResultCache
	var js store.JobStore
	if fileDir == "" {
		rs = store.NewResultCache(store.NewMemory(daemonCache), 0)
		js = store.NewJobStore(store.NewMemory(daemonRetainJobs), 0)
	} else {
		rf, err := store.NewFile(filepath.Join(fileDir, "results"))
		if err != nil {
			return nil, err
		}
		jf, err := store.NewFile(filepath.Join(fileDir, "jobs"))
		if err != nil {
			return nil, err
		}
		rs = store.NewResultCache(rf, 0)
		js = store.NewJobStore(jf, 0)
	}
	d.results = &timedResults{ResultCache: rs, tr: tr}
	d.jobs = &timedJobs{JobStore: js, tr: tr}
	d.sched = service.New(service.Config{
		Workers:     daemonSolvers,
		QueueDepth:  daemonQueue,
		CacheSize:   daemonCache,
		TraceEvents: daemonTraceEvents,
		Results:     d.results,
		Jobs:        d.jobs,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.sched.Close()
		return nil, fmt.Errorf("daemon listener: %w", err)
	}
	d.url = "http://" + ln.Addr().String() + "/v1/place?wait=1"
	d.srv = &http.Server{Handler: tr.wrap(service.NewHandler(d.sched))}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 256,
			DisableCompression:  true,
		},
	}
	return d, nil
}

// close stops the scheduler (unblocking waiting handlers), shuts the
// server down, waits for it, and removes the file stores.
func (d *daemon) close() {
	d.sched.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a handler still running past the window is cut off; nothing to report
	<-d.served
	d.client.CloseIdleConnections()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// post sends one request body and reads the whole reply into buf.
func (d *daemon) post(body []byte, req int64, buf *bytes.Buffer) (int, error) {
	hr, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(requestHeader, strconv.FormatInt(req, 10))
	resp, err := d.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// storeCounts are a store's operation counters since the last reset.
type storeCounts struct {
	gets, hits, errors atomic.Int64
}

func (c *storeCounts) reset() {
	c.gets.Store(0)
	c.hits.Store(0)
	c.errors.Store(0)
}

// timedResults decorates the result cache: reads and writes are
// counted, and timed in a span while tracing is on.
type timedResults struct {
	store.ResultCache
	tr *tracer
	storeCounts
}

func (t *timedResults) Get(hash string) (*wire.Result, bool, error) {
	start := time.Now()
	res, ok, err := t.ResultCache.Get(hash)
	t.tr.add(span{Name: "store.result_get", Start: start, End: time.Now(), Hash: hash})
	t.gets.Add(1)
	if ok {
		t.hits.Add(1)
	}
	if err != nil {
		t.errors.Add(1)
	}
	return res, ok, err
}

func (t *timedResults) Put(hash string, res *wire.Result) error {
	start := time.Now()
	err := t.ResultCache.Put(hash, res)
	t.tr.add(span{Name: "store.result_put", Start: start, End: time.Now(), Hash: hash})
	if err != nil {
		t.errors.Add(1)
	}
	return err
}

// timedJobs decorates the job-record store's writes like timedResults.
type timedJobs struct {
	store.JobStore
	tr *tracer
	storeCounts
}

func (t *timedJobs) Put(rec *store.JobRecord) error {
	start := time.Now()
	err := t.JobStore.Put(rec)
	t.tr.add(span{Name: "store.job_put", Start: start, End: time.Now(), Hash: rec.Hash, Job: rec.ID})
	if err != nil {
		t.errors.Add(1)
	}
	return err
}
