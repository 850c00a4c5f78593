package wire

import (
	"fmt"
	"math"
	"slices"

	"repro/placer"
)

// Trace event kinds on the wire; placer.TraceEvent documents which
// fields each kind populates.
const (
	TraceKindStage      = "stage"
	TraceKindExchange   = "exchange"
	TraceKindCheckpoint = "checkpoint"
	TraceKindResume     = "resume"
	TraceKindFailpoint  = "failpoint"
)

// TraceEvent is one flight-recorder record on the wire.
type TraceEvent = placer.TraceEvent

// Trace is a solve's flight recording on the wire: versioned JSON,
// served by GET /v1/jobs/{id}/trace and attached to Result.Trace. It is
// a placer.Trace behind the version field, so its floats are finite
// (+Inf reads MaxFloat64) and only exchange events carry a peer. For a
// deterministic (fixed-seed, fault-free) solve the canonical encoding
// is itself deterministic byte for byte, provided the recording
// dropped no events.
type Trace struct {
	Version int `json:"version"`
	placer.Trace
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

// TraceFromPlacer wraps a placer trace in its wire form, with its own
// copy of the events.
func TraceFromPlacer(tr *placer.Trace) *Trace {
	if tr == nil {
		return nil
	}
	out := &Trace{Version: Version, Trace: *tr}
	out.Events = slices.Clone(tr.Events)
	return out
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
