package wire

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/placer"
)

func validTrace() *Trace {
	return &Trace{
		Version: Version, Method: "seqpair", Capacity: 2048,
		Events: []TraceEvent{
			{Kind: TraceKindResume, Worker: 0, Cur: 10, Best: 10},
			{Kind: TraceKindStage, Worker: 0, Stage: 1, Temp: 5, Best: 9, Cur: 9.5, Moves: 40, Accepted: 20, Improved: 5},
			{Kind: TraceKindExchange, Worker: 0, Stage: 2, Temp: 5, Cur: 9, Peer: 1, PeerTemp: 17.5, PeerCost: 11, Accept: true},
			{Kind: TraceKindCheckpoint, Worker: -1, Stage: 2, Best: 9},
			{Kind: TraceKindFailpoint, Worker: -1, Stage: -1, Point: "solve/slow"},
		},
	}
}

func TestTraceValidateAccepts(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestTraceValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"bad version", func(tr *Trace) { tr.Version = Version + 1 }, "version"},
		{"unknown method", func(tr *Trace) { tr.Method = "simplex" }, "method"},
		{"negative capacity", func(tr *Trace) { tr.Capacity = -1 }, "capacity"},
		{"unknown kind", func(tr *Trace) { tr.Events[0].Kind = "teleport" }, "kind"},
		{"worker below -1", func(tr *Trace) { tr.Events[1].Worker = -2 }, "below -1"},
		{"NaN cost", func(tr *Trace) { tr.Events[1].Best = math.NaN() }, "non-finite"},
		{"Inf temp", func(tr *Trace) { tr.Events[1].Temp = math.Inf(1) }, "non-finite"},
		{"negative moves", func(tr *Trace) { tr.Events[1].Moves = -1 }, "negative counter"},
		{"accepted over proposed", func(tr *Trace) { tr.Events[1].Accepted = tr.Events[1].Moves + 1 }, "accepted"},
		{"exchange peer below rung", func(tr *Trace) { tr.Events[2].Peer = 0 }, "not above"},
		{"failpoint unnamed", func(tr *Trace) { tr.Events[4].Point = "" }, "without a point"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := validTrace()
			tc.mut(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatal("corrupted trace validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestTraceFromPlacerSanitizes: +Inf costs (infeasible early states)
// must clamp to JSON-encodable values the validator then accepts, and
// non-exchange events must not leak their Peer -1 sentinel. The live
// mapping (TraceEventFromObs, what SSE streams) must agree with the
// finished-trace one event for event.
func TestTraceFromPlacerSanitizes(t *testing.T) {
	tr := TraceFromPlacer(&placer.Trace{
		Algorithm: "seqpair",
		Capacity:  16,
		Events: []placer.TraceEvent{
			{Kind: "stage", Worker: 0, Stage: 1, Temp: 2, Best: math.Inf(1), Cur: math.Inf(1), Moves: 3, Peer: -1},
		},
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("sanitized trace rejected: %v", err)
	}
	e := tr.Events[0]
	if e.Best != math.MaxFloat64 || e.Cur != math.MaxFloat64 {
		t.Fatalf("+Inf not clamped: %+v", e)
	}
	if e.Peer != 0 {
		t.Fatalf("non-exchange event leaked peer %d", e.Peer)
	}
	if TraceFromPlacer(nil) != nil {
		t.Fatal("nil placer trace must convert to nil")
	}

	live := []obs.Event{
		{Kind: obs.EventStage, Worker: 0, Stage: 1, Temp: 2, Best: math.Inf(1), Cur: math.Inf(1), Moves: 3, Peer: -1},
		{Kind: obs.EventExchange, Worker: 0, Stage: 2, Temp: 5, Cur: 9, Peer: 1, PeerTemp: math.Inf(1), PeerCost: 11, Accept: true},
	}
	want := TraceFromPlacer(&placer.Trace{Events: []placer.TraceEvent{
		{Kind: "stage", Worker: 0, Stage: 1, Temp: 2, Best: math.Inf(1), Cur: math.Inf(1), Moves: 3, Peer: -1},
		{Kind: "exchange", Worker: 0, Stage: 2, Temp: 5, Cur: 9, Peer: 1, PeerTemp: math.Inf(1), PeerCost: 11, Accept: true},
	}}).Events
	for i, e := range live {
		if got := TraceEventFromObs(e); got != want[i] {
			t.Fatalf("live event %d streams as %+v, finished trace holds %+v", i, got, want[i])
		}
	}
	if got := TraceEventFromObs(live[0]); got.Best != math.MaxFloat64 {
		t.Fatalf("+Inf best streams as %v, want MaxFloat64", got.Best)
	}
}
