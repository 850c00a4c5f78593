package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
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
func serveJobStream(w http.ResponseWriter, r *http.Request, job *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotAcceptable, "connection does not support streaming")
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
		lastProgress []byte
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
			b, err := json.Marshal(wireEventFromObs(e))
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind.String(), b); err != nil {
				return false
			}
			wrote = true
		}
		if p, ok := job.Progress(); ok {
			b, err := json.Marshal(p)
			if err == nil && !bytes.Equal(b, lastProgress) {
				lastProgress = b
				if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", b); err != nil {
					return false
				}
				wrote = true
			}
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
			if b, err := json.Marshal(job.View()); err == nil {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", b)
			}
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
func serveRecordStream(w http.ResponseWriter, rec *store.JobRecord) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// A stored record went through JSON on its way into the job store,
	// so re-encoding its parts cannot fail.
	if rec.Result != nil && rec.Result.Trace != nil {
		tr := rec.Result.Trace
		for i, e := range tr.Events {
			b, _ := json.Marshal(e)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", tr.Dropped+uint64(i), e.Kind, b)
		}
	}
	if rec.Progress != nil {
		b, _ := json.Marshal(rec.Progress)
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", b)
	}
	b, _ := json.Marshal(recordView(rec))
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", b)
}

// wireEventFromObs converts one live ring event to the wire trace
// event shape — the same mapping the completed trace goes through
// (placer trace → wire.TraceFromPlacer), so a client can decode both
// with one type.
func wireEventFromObs(e obs.Event) wire.TraceEvent {
	we := wire.TraceEvent{
		Kind:     e.Kind.String(),
		Worker:   int(e.Worker),
		Stage:    int(e.Stage),
		Temp:     finiteFloat(e.Temp),
		Best:     finiteFloat(e.Best),
		Cur:      finiteFloat(e.Cur),
		Moves:    e.Moves,
		Accepted: e.Accepted,
		Improved: e.Improved,
		PeerTemp: finiteFloat(e.PeerTemp),
		PeerCost: finiteFloat(e.PeerCost),
		Accept:   e.Accept,
		Point:    e.Point,
	}
	if e.Kind == obs.EventExchange {
		we.Peer = int(e.Peer)
	}
	if n := int(e.NKinds); n > 0 {
		we.KindProposed = make([]int64, n)
		we.KindAccepted = make([]int64, n)
		for i := 0; i < n; i++ {
			we.KindProposed[i] = int64(e.KindProposed[i])
			we.KindAccepted[i] = int64(e.KindAccepted[i])
		}
	}
	return we
}

// finiteFloat clamps IEEE specials for JSON, mirroring the wire
// package's trace encoding (+Inf costs price infeasible early states).
func finiteFloat(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}
