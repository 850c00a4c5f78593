package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// maxRequestBytes bounds a POST /v1/place body.
const maxRequestBytes = 16 << 20

// JobView is the JSON shape of a job on the HTTP API.
type JobView struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Hash     string    `json:"hash"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	// Degraded marks a result produced under deadline pressure with a
	// shortened annealing schedule; resubmit the identical request
	// when the service is quieter for the canonical placement.
	Degraded bool         `json:"degraded,omitempty"`
	Result   *wire.Result `json:"result,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// View renders the job for the HTTP API as one atomic snapshot, so a
// client can never observe a running state with a result. A terminal
// job renders from its record.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec != nil {
		return recordView(j.rec)
	}
	v := JobView{ID: j.ID, Hash: j.Hash, State: j.state, Degraded: j.degraded}
	if p, ok := j.progressLocked(); ok {
		v.Progress = &p
	}
	return v
}

// recordView renders a terminal job from its record. It is the one
// terminal rendering, so a job that just finished, one read back from
// the job store and one solved by another instance sharing a durable
// store answer the same bytes.
func recordView(rec *store.JobRecord) JobView {
	return JobView{
		ID:       rec.ID,
		State:    State(rec.State),
		Hash:     rec.Hash,
		CacheHit: rec.CacheHit,
		Progress: rec.Progress,
		Degraded: rec.Degraded,
		Result:   rec.Result,
		Error:    rec.Error,
	}
}

// BatchView is the response of POST /v1/place:batch: one entry per
// submitted item, in request order.
type BatchView struct {
	Jobs []BatchItemView `json:"jobs"`
}

// BatchItemView is one batch item's outcome: a job view on success, or
// the per-item submission error (queue full, tenant quota) with its
// retry hint. Identical items in one batch coalesce onto a single
// solve, so their views share an id and a hash.
type BatchItemView struct {
	Job         *JobView `json:"job,omitempty"`
	Error       string   `json:"error,omitempty"`
	RetryAfterS int64    `json:"retry_after_s,omitempty"`
}

// NewHandler exposes a scheduler over HTTP:
//
//	POST   /v1/place            submit a wire.Request; ?wait=1 blocks until
//	                            done (429 + Retry-After when the queue sheds
//	                            load or the tenant is over quota, 503 once
//	                            the scheduler is draining)
//	POST   /v1/place:batch      submit a wire.BatchRequest: N problems
//	                            decoded and validated together, fanned into
//	                            jobs with identical items coalesced onto one
//	                            solve; ?wait=1 blocks until all are done
//	GET    /v1/algorithms       the placer registry: valid algorithm strings
//	GET    /v1/jobs/{id}        job status, live progress, result; with
//	                            Accept: text/event-stream, a live SSE feed
//	                            of flight-recorder and progress events (a
//	                            finished job's feed replays its recording)
//	GET    /v1/jobs/{id}/trace  the solve's flight recording (wire.Trace);
//	                            409 until the job is terminal
//	DELETE /v1/jobs/{id}        cancel (returns promptly; best-so-far kept)
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text metrics
//
// Tenancy: the X-API-Key header names the tenant for quota admission
// and fair queueing; absent means the shared "anonymous" tenant.
//
// Repeated requests: the scheduler remembers the content hash of every
// POST /v1/place body it accepted (a bounded memo, sized like the
// result cache). A byte-identical repeat goes straight to the result
// cache without being decoded, validated or hashed again; if the
// cache no longer holds the result, the body is decoded and solved
// like a new one. Every response is encoded before its header is
// written, so one that cannot be encoded answers 500, counted in
// placed_http_write_errors_total.
//
// Job lookups: a queued or running job answers from the scheduler's
// live table, a finished one from the job store — its own record, or
// another instance's on a shared durable store. The job endpoints
// answer 503 when the job store fails, not a misleading 404.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", func(w http.ResponseWriter, r *http.Request) {
		// The request span roots the trace tree; the job span parents
		// under it across the queue (see admit).
		ctx, span := obs.StartSpan(r.Context(), "request", obs.KV("path", "/v1/place"))
		defer span.End()
		ctx = WithTenant(ctx, r.Header.Get(TenantHeader))
		buf, ok := s.readBody(w, r)
		if !ok {
			return
		}
		body := buf.Bytes()
		// A byte-identical repeat of an accepted body skips decoding,
		// validation and hashing: the memo remembers its hash.
		hash, known := s.memo.lookup(body)
		var req *wire.Request
		var err error
		if !known {
			req, hash, err = wire.DecodeRequestHash(body)
			if err != nil {
				s.httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
			s.memo.remember(body, hash)
		}
		// Failpoint: a decode that succeeded (or a memo match) is
		// reported as failed, so chaos tests can exercise client-side
		// retry on 400s without crafting actually-corrupt bodies.
		if fault.Point("wire/decode-err") {
			s.httpError(w, http.StatusBadRequest, "injected decode error (failpoint wire/decode-err)")
			return
		}
		var job *Job
		if known {
			job, err = s.submitMemoized(ctx, body, hash)
		} else {
			job, err = s.submitHashed(ctx, req, hash)
		}
		if err != nil {
			submitError(w, s, err)
			return
		}
		// Nothing submitted keeps a slice of body (the memo and the
		// decoded request hold copies), so its buffer goes back before
		// any wait. An error return above leaves the buffer to the GC.
		releaseBody(buf)
		wait := r.URL.Query().Get("wait")
		if wait == "1" || wait == "true" {
			select {
			case <-job.Done():
			case <-r.Context().Done():
				// The client went away; the job keeps running for the
				// next requester (it is content-addressed).
				s.httpError(w, statusClientClosedRequest, "client closed request")
				return
			}
		}
		// One snapshot decides both status and body, so a 202 can never
		// carry an already-terminal body.
		v := job.View()
		status := http.StatusAccepted
		if v.State.Terminal() {
			status = http.StatusOK
		}
		s.writeJSON(w, status, v)
	})

	mux.HandleFunc("POST /v1/place:batch", func(w http.ResponseWriter, r *http.Request) {
		ctx, span := obs.StartSpan(r.Context(), "request", obs.KV("path", "/v1/place:batch"))
		defer span.End()
		ctx = WithTenant(ctx, r.Header.Get(TenantHeader))
		buf, ok := s.readBody(w, r)
		if !ok {
			return
		}
		// One decode validates every item up front: a batch with any
		// invalid item is rejected whole, before any job is enqueued.
		batch, hashes, err := wire.DecodeBatchRequestHash(buf.Bytes())
		releaseBody(buf) // the decoded batch holds copies
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if fault.Point("wire/decode-err") {
			s.httpError(w, http.StatusBadRequest, "injected decode error (failpoint wire/decode-err)")
			return
		}
		view := BatchView{Jobs: make([]BatchItemView, len(batch.Items))}
		jobs := make([]*Job, len(batch.Items)) // nil where the item was rejected
		rejected := 0
		var maxRetry int64
		for i := range batch.Items {
			// Items are already validated, normalized and hashed;
			// identical items (and identical in-flight singles)
			// coalesce onto one solve.
			job, err := s.submitHashed(ctx, &batch.Items[i], hashes[i])
			if err != nil {
				if errors.Is(err, ErrClosed) {
					s.httpError(w, http.StatusServiceUnavailable, "%v", err)
					return
				}
				rejected++
				item := &view.Jobs[i]
				item.Error = err.Error()
				item.RetryAfterS = retrySeconds(s, err)
				if item.RetryAfterS > maxRetry {
					maxRetry = item.RetryAfterS
				}
				continue
			}
			jobs[i] = job
		}
		if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
			for _, job := range jobs {
				if job == nil {
					continue
				}
				select {
				case <-job.Done():
				case <-r.Context().Done():
					s.httpError(w, statusClientClosedRequest, "client closed request")
					return
				}
			}
		}
		// Snapshot every job after the optional wait, so a waited batch
		// reports terminal views throughout.
		status := http.StatusOK
		for i, job := range jobs {
			if job == nil {
				continue
			}
			v := job.View()
			view.Jobs[i].Job = &v
			if !v.State.Terminal() {
				status = http.StatusAccepted
			}
		}
		if rejected == len(batch.Items) {
			// Nothing was admitted: surface the shed as a batch-level 429
			// so naive clients back off, with the longest per-item hint.
			w.Header().Set("Retry-After", fmt.Sprintf("%d", maxRetry))
			status = http.StatusTooManyRequests
		}
		s.writeJSON(w, status, view)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, rec, ok := findJob(w, s, r.PathValue("id"))
		switch {
		case !ok: // findJob answered
		case job != nil && wantsEventStream(r):
			// A job whose record is sealed but which has not left the
			// live table yet replays like one read from the job store,
			// so a finished job's stream has one order.
			if rec := job.record(); rec != nil {
				s.serveRecordStream(w, rec)
			} else {
				s.serveJobStream(w, r, job)
			}
		case job != nil:
			s.writeJSON(w, http.StatusOK, job.View())
		case wantsEventStream(r):
			s.serveRecordStream(w, rec)
		default:
			s.writeJSON(w, http.StatusOK, recordView(rec))
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, rec, ok := findJob(w, s, id)
		if !ok {
			return
		}
		if job != nil {
			if rec = job.record(); rec == nil {
				s.httpError(w, http.StatusConflict, "job %s not terminal; its trace is served once it finishes", id)
				return
			}
		}
		if tr := recordTrace(rec); tr != nil {
			s.writeJSON(w, http.StatusOK, tr)
			return
		}
		s.httpError(w, http.StatusNotFound, "no trace recorded for job %s", id)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, rec, ok := findJob(w, s, r.PathValue("id"))
		switch {
		case !ok: // findJob answered
		case job != nil:
			s.cancel(job)
			s.writeJSON(w, http.StatusOK, job.View())
		default:
			// Already terminal, which is what a cancel wants anyway.
			s.writeJSON(w, http.StatusOK, recordView(rec))
		}
	})

	mux.HandleFunc("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, Algorithms())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			s.httpWriteErrors[writeErrWrite].Add(1)
		}
	})

	return mux
}

// findJob resolves a job id for the /v1/jobs endpoints: the live job
// while it is queued or running, else its terminal record from the job
// store. When neither is there it answers 404, or 503 if the store
// failed, and reports false.
func findJob(w http.ResponseWriter, s *Scheduler, id string) (*Job, *store.JobRecord, bool) {
	if job, ok := s.Job(id); ok {
		return job, nil, true
	}
	rec, ok, err := s.Record(id)
	switch {
	case err != nil:
		s.httpError(w, http.StatusServiceUnavailable, "job store: %v", err)
	case !ok:
		s.httpError(w, http.StatusNotFound, "no such job")
	default:
		return nil, rec, true
	}
	return nil, nil, false
}

// statusClientClosedRequest is nginx's non-standard 499, the
// conventional "client went away while we were working" status.
const statusClientClosedRequest = 499

// submitError maps a SubmitCtx error to its HTTP response: queue-full
// shedding and tenant quota rejections both answer 429 with a
// Retry-After (backlog-derived and token-refill-derived respectively),
// a draining scheduler answers 503, and anything else is the client's
// 400.
func submitError(w http.ResponseWriter, s *Scheduler, err error) {
	var qe *QuotaError
	switch {
	case errors.Is(err, ErrQueueFull), errors.As(err, &qe):
		// The content hash makes the client's later resubmission
		// idempotent.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retrySeconds(s, err)))
		s.httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrClosed):
		s.httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.httpError(w, http.StatusBadRequest, "%v", err)
	}
}

// retrySeconds is the Retry-After value for a shed submission, in
// whole seconds.
func retrySeconds(s *Scheduler, err error) int64 {
	var qe *QuotaError
	switch {
	case errors.As(err, &qe):
		return int64(math.Ceil(qe.RetryAfter.Seconds()))
	case errors.Is(err, ErrQueueFull):
		return int64(math.Ceil(s.RetryAfter().Seconds()))
	}
	return 0
}

// writeErrorKind labels placed_http_write_errors_total: a response
// that could not be encoded, or not written to the client.
type writeErrorKind int

const (
	writeErrEncode writeErrorKind = iota
	writeErrWrite
	numWriteErrorKinds
)

var writeErrorKindNames = [numWriteErrorKinds]string{"encode", "write"}

// maxBodyPrealloc caps how far readBody grows its buffer from a
// declared Content-Length, so a header alone cannot make the server
// allocate more; a buffer grown past it is not pooled.
const maxBodyPrealloc = 1 << 20

// readBody reads a POST body into a pooled buffer, which the caller
// hands back with releaseBody once nothing uses its bytes. When the
// body cannot be read or is over maxRequestBytes, it answers 400 or
// 413 and reports false; a body whose Content-Length declares more
// than maxRequestBytes is refused before any of it is read.
func (s *Scheduler) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	if r.ContentLength > maxRequestBytes {
		s.httpError(w, http.StatusRequestEntityTooLarge, "request over %d bytes", maxRequestBytes)
		return nil, false
	}
	buf := bufs.Get().(*bytes.Buffer)
	if n := r.ContentLength; n > 0 {
		// MinRead spare bytes let the final read see EOF without a
		// further grow.
		buf.Grow(int(min(n, maxBodyPrealloc-bytes.MinRead)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(r.Body, maxRequestBytes+1))
	switch {
	case err != nil:
		s.httpError(w, http.StatusBadRequest, "reading body: %v", err)
	case buf.Len() > maxRequestBytes:
		s.httpError(w, http.StatusRequestEntityTooLarge, "request over %d bytes", maxRequestBytes)
	default:
		return buf, true
	}
	releaseBody(buf)
	return nil, false
}

// releaseBody returns a readBody buffer to the pool, unless it grew
// past maxBodyPrealloc.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() > maxBodyPrealloc {
		return
	}
	buf.Reset()
	bufs.Put(buf)
}

// bufs recycles the buffers request bodies are read into and responses
// are encoded into.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers v as JSON with status. v is encoded before the
// header goes out, so a view that cannot be encoded (a NaN cost)
// answers 500 with an error, not an empty 200. Both failures are
// counted.
func (s *Scheduler) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bufs.Put(buf)
	}()
	// An Encoder writes nothing to buf when encoding fails.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.httpWriteErrors[writeErrEncode].Add(1)
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": fmt.Sprintf("encoding the response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.httpWriteErrors[writeErrWrite].Add(1)
	}
}

func (s *Scheduler) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
