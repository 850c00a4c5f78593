package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/placer"
)

// sseTick is how often a job stream polls the job's ring and progress
// for new material. SSE is an observation channel — ticks never touch
// the solve, which records into its ring regardless of readers.
const sseTick = 50 * time.Millisecond

// wantsEventStream reports whether the request negotiated SSE.
func wantsEventStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// serveJobStream streams a job over Server-Sent Events until it
// reaches a terminal state or the client disconnects:
//
//   - flight-recorder events, live from the solve's ring as they are
//     recorded, named by their kind ("stage", "exchange", ...) with
//     the ring sequence as the SSE id;
//   - "progress" events carrying the aggregated Progress snapshot
//     whenever it changes;
//   - one final "done" event carrying the terminal JobView.
//
// The stream reads the same ring the engines record into
// (placer.WithRecorder + obs.Flight.Since), so observation never
// perturbs the solve — determinism pins hold with streams attached. A
// crash retry replaces the job's ring; the stream detects the identity
// change and restarts its cursor, so the events always describe the
// attempt that will produce the result.
func (s *Scheduler) serveJobStream(w http.ResponseWriter, r *http.Request, job *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusNotAcceptable, "connection does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var (
		ring         *obs.Flight
		cursor       uint64
		lastProgress *Progress
	)
	// emit drains new ring events and any progress change; it reports
	// whether every write succeeded (a false means the client is gone).
	emit := func() bool {
		wrote := false
		if cur := job.Ring(); cur != ring {
			ring, cursor = cur, 0
		}
		for _, e := range ring.Since(cursor) {
			cursor = e.Seq + 1
			if !s.writeEvent(w, fmt.Sprintf("id: %d\nevent: %s\n", e.Seq, e.Kind), placer.TraceEventFromObs(e)) {
				return false
			}
			wrote = true
		}
		if p, ok := job.Progress(); ok && (lastProgress == nil || p != *lastProgress) {
			lastProgress = &p
			if !s.writeEvent(w, "event: progress\n", p) {
				return false
			}
			wrote = true
		}
		if wrote {
			fl.Flush()
		}
		return true
	}

	ticker := time.NewTicker(sseTick)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			emit() // the ring's tail, recorded between the last tick and the finish
			s.writeEvent(w, "event: done\n", job.View())
			fl.Flush()
			return
		case <-ticker.C:
			if !emit() {
				return
			}
		}
	}
}

// serveRecordStream answers a finished job read from the job store in
// the live stream's shape, all at once: the recording's events (their
// ids continue the ring's sequence past the dropped ones), one
// "progress" event with the final Progress, and the "done" event with
// the terminal view.
func (s *Scheduler) serveRecordStream(w http.ResponseWriter, rec *store.JobRecord) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	if rec.Result != nil && rec.Result.Trace != nil {
		tr := rec.Result.Trace
		for i, e := range tr.Events {
			if !s.writeEvent(w, fmt.Sprintf("id: %d\nevent: %s\n", tr.Dropped+uint64(i), e.Kind), e) {
				return
			}
		}
	}
	if rec.Progress != nil && !s.writeEvent(w, "event: progress\n", rec.Progress) {
		return
	}
	s.writeEvent(w, "event: done\n", recordView(rec))
}

// writeEvent writes one SSE event: head (its id and event lines) and v
// encoded as its data. An event that cannot be encoded is skipped; an
// event that cannot be written means the client is gone. Both are
// counted in placed_http_write_errors_total, and the result reports
// whether the stream can go on.
func (s *Scheduler) writeEvent(w io.Writer, head string, v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		s.httpWriteErrors[writeErrEncode].Add(1)
		return true
	}
	if _, err := fmt.Fprintf(w, "%sdata: %s\n\n", head, b); err != nil {
		s.httpWriteErrors[writeErrWrite].Add(1)
		return false
	}
	return true
}
