package placer_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// tracePins name the trace JSON fixtures under testdata. Each is the
// exact wire encoding of one recording, so they pin the mapping from
// flight-recorder events to the wire byte for byte: field order and
// omission, the clamping of non-finite floats and the peer rule.
var tracePins = []struct {
	name string
	// trace solves and returns the recording to encode.
	trace func(t *testing.T) *wire.Trace
}{
	// A tempered seqpair solve: stage, exchange and checkpoint events.
	{"tempered", func(t *testing.T) *wire.Trace {
		req := traceRequest(t)
		req.Options.TemperChains = 3
		req.Options.ExchangeEvery = 2
		res, err := service.Solve(t.Context(), req, nil, placer.WithTrace(0), placer.WithCheckpoint(noResume{}))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, e := range res.Trace.Events {
			kinds[e.Kind]++
		}
		if kinds[wire.TraceKindExchange] == 0 || kinds[wire.TraceKindCheckpoint] == 0 {
			t.Fatalf("tempered trace lacks exchange or checkpoint events: %v", kinds)
		}
		return res.Trace
	}},
	// A job whose first two runs crashed their worker: the recording
	// of the retry that solved it, led by one failpoint event per crash.
	{"failpoint", func(t *testing.T) *wire.Trace {
		defer fault.Reset()
		fault.SetSeed(11) // fires on the first two draws, not the third
		fault.Enable("scheduler/worker-panic", 0.5)
		s := service.New(service.Config{Workers: 1, MaxJobCrashes: 3})
		defer s.Close()
		j, err := s.Submit(traceRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(2 * time.Minute):
			t.Fatal("job did not finish")
		}
		if j.State() != service.StateDone {
			t.Fatalf("job ended %s: %s", j.State(), j.Err())
		}
		tr, ready := j.Trace()
		if !ready || tr == nil || len(tr.Events) == 0 || tr.Events[0].Kind != wire.TraceKindFailpoint {
			t.Fatalf("Trace() = (%+v, %v), want a recording led by a failpoint", tr, ready)
		}
		return tr
	}},
	// Events with non-finite values, recorded ahead of a short solve
	// into the caller's ring: ±Inf clamps to ±MaxFloat64 and NaN to 0.
	{"nonfinite", func(t *testing.T) *wire.Trace {
		f := obs.NewFlight(0)
		f.Record(obs.Event{Kind: obs.EventResume, Worker: 0, Cur: math.Inf(1), Best: math.Inf(1), Peer: -1})
		f.Record(obs.Event{Kind: obs.EventExchange, Worker: 0, Temp: math.NaN(), Cur: 1, Peer: 1, PeerTemp: 2, PeerCost: math.Inf(-1)})
		res, err := service.Solve(t.Context(), traceRequest(t), nil, placer.WithRecorder(f))
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}},
}

// traceRequest is the pinned Miller seqpair request on a schedule short
// enough that its trace fixtures stay small.
func traceRequest(t *testing.T) *wire.Request {
	t.Helper()
	req, _ := readPin(t, "miller_seqpair")
	req.Options.Seed = 11
	req.Options.MovesPerStage = 20
	req.Options.MaxStages = 6
	req.Options.StallStages = 6
	return req
}

// noResume is a placer.Checkpointer that keeps nothing: it only makes
// the engines capture, and so record, checkpoints.
type noResume struct{}

func (noResume) Save(string, any, float64, int) {}

func (noResume) Load(string) (any, float64, bool) { return nil, 0, false }

// TestTracePinned: each recording encodes to its fixture's bytes.
func TestTracePinned(t *testing.T) {
	for _, pin := range tracePins {
		t.Run(pin.name, func(t *testing.T) {
			got, err := json.Marshal(pin.trace(t))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "trace_"+pin.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("trace bytes differ from the fixture:\ngot  %s\nwant %s", got, want)
			}
		})
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_nonfinite.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{`"cur":1.7976931348623157e+308`, `"peer_cost":-1.7976931348623157e+308`} {
		if !bytes.Contains(want, []byte(s)) {
			t.Errorf("nonfinite fixture lacks %s", s)
		}
	}
}
