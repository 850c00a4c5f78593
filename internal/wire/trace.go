package wire

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/placer"
)

// Trace event kinds on the wire. They mirror the placer trace's
// spellings; TraceEvent documents which fields each kind populates.
const (
	TraceKindStage      = "stage"
	TraceKindExchange   = "exchange"
	TraceKindCheckpoint = "checkpoint"
	TraceKindResume     = "resume"
	TraceKindFailpoint  = "failpoint"
)

// TraceEvent is one flight-recorder record on the wire.
//
//   - "stage": one completed temperature stage of chain `worker`:
//     temperature after cooling, best/current cost and cumulative
//     move counters.
//   - "exchange": one replica-exchange attempt between tempering rungs
//     `worker` and `peer` with the pre-swap decision inputs and the
//     Metropolis outcome in `accept`.
//   - "checkpoint": a best-so-far snapshot capture; worker -1 is the
//     tempering coordinator capturing the ladder-wide best.
//   - "resume": the run warm-started from a checkpoint.
//   - "failpoint": an injected fault (chaos testing) named by `point`;
//     worker/stage are -1 for faults hit outside any chain.
type TraceEvent struct {
	Kind     string  `json:"kind"`
	Worker   int     `json:"worker"`
	Stage    int     `json:"stage"`
	Temp     float64 `json:"temp,omitempty"`
	Best     float64 `json:"best,omitempty"`
	Cur      float64 `json:"cur,omitempty"`
	Moves    int64   `json:"moves,omitempty"`
	Accepted int64   `json:"accepted,omitempty"`
	Improved int64   `json:"improved,omitempty"`

	// Exchange fields. Peer is always > worker ≥ 0 on exchange events,
	// so omitempty never hides it.
	Peer     int     `json:"peer,omitempty"`
	PeerTemp float64 `json:"peer_temp,omitempty"`
	PeerCost float64 `json:"peer_cost,omitempty"`
	Accept   bool    `json:"accept,omitempty"`

	Point string `json:"point,omitempty"`
}

// Trace is a solve's flight recording on the wire: versioned JSON,
// served by GET /v1/jobs/{id}/trace and attached to Result.Trace.
// For a deterministic (fixed-seed, fault-free) solve the canonical
// encoding is itself deterministic byte for byte, provided the
// recording dropped no events.
type Trace struct {
	Version int    `json:"version"`
	Method  string `json:"method"`
	// Capacity is the recorder ring size the solve ran with; Dropped
	// counts events lost to overwriting after the ring filled (the
	// newest events are the ones kept).
	Capacity int          `json:"capacity"`
	Dropped  uint64       `json:"dropped,omitempty"`
	Events   []TraceEvent `json:"events"`
}

// Clone returns a deep copy of the trace; a nil Events stays nil.
func (t *Trace) Clone() *Trace {
	if t == nil {
		return nil
	}
	c := *t
	c.Events = slices.Clone(t.Events)
	return &c
}

// traceFloat makes a recorded float JSON-encodable: JSON has no
// IEEE-754 specials, and a trace may legitimately contain +Inf costs
// (infeasible early states are priced at +Inf). Non-finite values
// clamp to ±MaxFloat64; NaN (never produced by the engines) becomes 0.
func traceFloat(v float64) float64 {
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

// TraceFromPlacer converts a placer trace into its wire form.
func TraceFromPlacer(tr *placer.Trace) *Trace {
	if tr == nil {
		return nil
	}
	out := &Trace{
		Version:  Version,
		Method:   tr.Algorithm,
		Capacity: tr.Capacity,
		Dropped:  tr.Dropped,
		Events:   make([]TraceEvent, 0, len(tr.Events)),
	}
	for _, e := range tr.Events {
		we := TraceEvent{
			Kind:     e.Kind,
			Worker:   e.Worker,
			Stage:    e.Stage,
			Temp:     traceFloat(e.Temp),
			Best:     traceFloat(e.Best),
			Cur:      traceFloat(e.Cur),
			Moves:    e.Moves,
			Accepted: e.Accepted,
			Improved: e.Improved,
			PeerTemp: traceFloat(e.PeerTemp),
			PeerCost: traceFloat(e.PeerCost),
			Accept:   e.Accept,
			Point:    e.Point,
		}
		if e.Kind == "exchange" {
			we.Peer = e.Peer
		}
		out.Events = append(out.Events, we)
	}
	return out
}

// TraceEventFromObs converts one live flight-recorder event into its
// wire form: the mapping TraceFromPlacer applies to a finished trace,
// so a client decodes streamed and completed events with one type.
func TraceEventFromObs(e obs.Event) TraceEvent {
	we := TraceEvent{
		Kind:     e.Kind.String(),
		Worker:   int(e.Worker),
		Stage:    int(e.Stage),
		Temp:     traceFloat(e.Temp),
		Best:     traceFloat(e.Best),
		Cur:      traceFloat(e.Cur),
		Moves:    e.Moves,
		Accepted: e.Accepted,
		Improved: e.Improved,
		PeerTemp: traceFloat(e.PeerTemp),
		PeerCost: traceFloat(e.PeerCost),
		Accept:   e.Accept,
		Point:    e.Point,
	}
	if e.Kind == obs.EventExchange {
		we.Peer = int(e.Peer)
	}
	return we
}

// traceKinds is the closed set of event kinds this wire version
// speaks.
var traceKinds = map[string]bool{
	TraceKindStage:      true,
	TraceKindExchange:   true,
	TraceKindCheckpoint: true,
	TraceKindResume:     true,
	TraceKindFailpoint:  true,
}

// Validate checks a trace against the versioned schema: supported
// version, a method this build knows, a sane ring geometry, and
// per-event invariants (a known kind, finite floats, non-negative
// counters, exchange partners above the rung, failpoints named).
func (t *Trace) Validate() error {
	if t.Version != 0 && t.Version != Version {
		return fmt.Errorf("wire: unsupported trace version %d (this build speaks %d)", t.Version, Version)
	}
	if t.Method != "" && !KnownMethod(t.Method) {
		return fmt.Errorf("wire: trace method %q unknown", t.Method)
	}
	if t.Capacity < 0 {
		return fmt.Errorf("wire: negative trace capacity %d", t.Capacity)
	}
	for i, e := range t.Events {
		if !traceKinds[e.Kind] {
			return fmt.Errorf("wire: trace event %d has unknown kind %q", i, e.Kind)
		}
		if e.Worker < -1 || e.Stage < -1 {
			return fmt.Errorf("wire: trace event %d has worker/stage below -1", i)
		}
		for _, v := range []float64{e.Temp, e.Best, e.Cur, e.PeerTemp, e.PeerCost} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("wire: trace event %d has non-finite value", i)
			}
		}
		if e.Moves < 0 || e.Accepted < 0 || e.Improved < 0 {
			return fmt.Errorf("wire: trace event %d has negative counter", i)
		}
		if e.Accepted > e.Moves {
			return fmt.Errorf("wire: trace event %d accepted %d moves of %d proposed", i, e.Accepted, e.Moves)
		}
		switch e.Kind {
		case TraceKindExchange:
			if e.Peer <= e.Worker {
				return fmt.Errorf("wire: trace event %d exchange peer %d not above rung %d", i, e.Peer, e.Worker)
			}
		case TraceKindFailpoint:
			if e.Point == "" {
				return fmt.Errorf("wire: trace event %d failpoint without a point name", i)
			}
		}
	}
	return nil
}
