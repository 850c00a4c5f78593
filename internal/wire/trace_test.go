package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/placer"
)

func validTrace() *Trace {
	return &Trace{
		Version: Version, Trace: placer.Trace{Method: "seqpair", Capacity: 2048, Events: []TraceEvent{
			{Kind: TraceKindResume, Worker: 0, Cur: 10, Best: 10},
			{Kind: TraceKindStage, Worker: 0, Stage: 1, Temp: 5, Best: 9, Cur: 9.5, Moves: 40, Accepted: 20, Improved: 5},
			{Kind: TraceKindExchange, Worker: 0, Stage: 2, Temp: 5, Cur: 9, Peer: 1, PeerTemp: 17.5, PeerCost: 11, Accept: true},
			{Kind: TraceKindCheckpoint, Worker: -1, Stage: 2, Best: 9},
			{Kind: TraceKindFailpoint, Worker: -1, Stage: -1, Point: "solve/slow"},
		}},
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

// TestTraceFromPlacerSanitizes: the one mapping from recorder events
// (placer.TraceEventFromObs, what result traces and SSE carry) clamps
// +Inf costs (infeasible early states) to JSON-encodable values the
// validator accepts, keeps Peer only on exchange events (no -1
// sentinel leaks), and encodes to the wire bytes; TraceFromPlacer wraps
// the result with the version and copies its events.
func TestTraceFromPlacerSanitizes(t *testing.T) {
	live := []obs.Event{
		{Kind: obs.EventStage, Worker: 0, Stage: 1, Temp: 2, Best: math.Inf(1), Cur: math.Inf(1), Moves: 3, Peer: -1},
		{Kind: obs.EventExchange, Worker: 0, Stage: 2, Temp: 5, Cur: 9, Peer: 1, PeerTemp: math.Inf(1), PeerCost: 11, Accept: true},
	}
	want := []string{
		`{"kind":"stage","worker":0,"stage":1,"temp":2,"best":1.7976931348623157e+308,"cur":1.7976931348623157e+308,"moves":3}`,
		`{"kind":"exchange","worker":0,"stage":2,"temp":5,"cur":9,"peer":1,"peer_temp":1.7976931348623157e+308,"peer_cost":11,"accept":true}`,
	}
	pt := &placer.Trace{Method: "seqpair", Capacity: 16}
	for i, e := range live {
		te := placer.TraceEventFromObs(e)
		b, err := json.Marshal(te)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want[i] {
			t.Fatalf("event %d encodes as\n%s\nwant\n%s", i, b, want[i])
		}
		pt.Events = append(pt.Events, te)
	}
	tr := TraceFromPlacer(pt)
	if err := tr.Validate(); err != nil {
		t.Fatalf("sanitized trace rejected: %v", err)
	}
	if tr.Version != Version {
		t.Fatalf("wire trace version %d", tr.Version)
	}
	tr.Events[0].Moves = 99
	if pt.Events[0].Moves != 3 {
		t.Fatal("wire trace aliases the placer trace's events")
	}
	if TraceFromPlacer(nil) != nil {
		t.Fatal("nil placer trace must convert to nil")
	}
}
