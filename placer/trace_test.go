package placer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/placer"
)

// traceProblem is a small synthetic instance; big enough that a short
// schedule still runs several stages per chain.
func traceProblem(t *testing.T) *placer.Problem {
	t.Helper()
	p, err := placer.Synthetic(placer.SyntheticSpec{N: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// traceSchedule fixes InitialTemp so the tempering ladder's rung
// temperatures are exactly geometric (auto-calibration is per-replica,
// which would let rung temperatures cross).
func traceSchedule() placer.Schedule {
	return placer.Schedule{MovesPerStage: 40, MaxStages: 15, StallStages: 15, Cooling: 0.9, InitialTemp: 500}
}

// TestTraceDoesNotPerturb pins WithTrace's core promise: a traced
// solve places bit-identically to an untraced one with the same seed.
func TestTraceDoesNotPerturb(t *testing.T) {
	p := traceProblem(t)
	base := []placer.Option{
		placer.WithAlgorithm("seqpair"),
		placer.WithSeed(11),
		placer.WithSchedule(traceSchedule()),
		placer.WithTempering(3, 2),
	}
	plain, err := placer.Solve(context.Background(), p, base...)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := placer.Solve(context.Background(), p, append(base, placer.WithTrace(0))...)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced solve returned a trace")
	}
	if traced.Trace == nil {
		t.Fatal("traced solve returned no trace")
	}
	if plain.Cost != traced.Cost {
		t.Fatalf("tracing changed the cost: %v vs %v", plain.Cost, traced.Cost)
	}
	for i := range plain.Placement {
		if plain.Placement[i] != traced.Placement[i] {
			t.Fatalf("tracing moved module %d: %+v vs %+v", i, plain.Placement[i], traced.Placement[i])
		}
	}
}

// TestTraceDeterministic pins the recording itself: two fixed-seed
// solves produce byte-identical wire trace JSON — flight events carry
// no wall-clock and the snapshot order is canonical, so the trace
// inherits the solve's determinism.
func TestTraceDeterministic(t *testing.T) {
	p := traceProblem(t)
	run := func() []byte {
		res, err := placer.Solve(context.Background(), p,
			placer.WithAlgorithm("seqpair"),
			placer.WithSeed(23),
			placer.WithSchedule(traceSchedule()),
			placer.WithTempering(3, 2),
			placer.WithTrace(0),
		)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(wire.TraceFromPlacer(res.Trace))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed traces differ:\n%s\n%s", a, b)
	}
}

// TestTraceTemperedContent checks a tempered recording tells the whole
// story: stage events for every rung with sane monotone counters, and
// exchange attempts between adjacent rungs with the colder rung first.
func TestTraceTemperedContent(t *testing.T) {
	const chains = 3
	res, err := placer.Solve(context.Background(), traceProblem(t),
		placer.WithAlgorithm("seqpair"),
		placer.WithSeed(5),
		placer.WithSchedule(traceSchedule()),
		placer.WithTempering(chains, 2),
		placer.WithTrace(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace")
	}
	if tr.Method != "seqpair" {
		t.Errorf("trace algorithm %q", tr.Method)
	}
	stages := map[int]int{}
	exchanges := 0
	for _, e := range tr.Events {
		switch e.Kind {
		case "stage":
			if e.Worker < 0 || e.Worker >= chains {
				t.Fatalf("stage event from rung %d outside the ladder", e.Worker)
			}
			if e.Accepted > e.Moves || e.Improved > e.Accepted {
				t.Fatalf("stage counters inconsistent: %+v", e)
			}
			if e.Best > e.Cur {
				t.Fatalf("best cost above current: %+v", e)
			}
			stages[e.Worker]++
		case "exchange":
			if e.Peer != e.Worker+1 {
				t.Fatalf("exchange not between adjacent rungs: %+v", e)
			}
			if e.PeerTemp <= e.Temp {
				t.Fatalf("exchange peer rung %d at %g not hotter than rung %d at %g — the ladder is ordered cold to hot",
					e.Peer, e.PeerTemp, e.Worker, e.Temp)
			}
			exchanges++
		}
	}
	for k := 0; k < chains; k++ {
		if stages[k] == 0 {
			t.Errorf("rung %d recorded no stage events", k)
		}
	}
	if exchanges == 0 {
		t.Error("no exchange events recorded")
	}
}

// TestTraceRingDrops: a tiny ring must report drops and keep the
// newest events rather than failing or growing.
func TestTraceRingDrops(t *testing.T) {
	res, err := placer.Solve(context.Background(), traceProblem(t),
		placer.WithAlgorithm("seqpair"),
		placer.WithSeed(2),
		placer.WithSchedule(traceSchedule()),
		placer.WithTempering(3, 1),
		placer.WithTrace(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.Capacity != 4 {
		t.Fatalf("ring capacity %d, want 4", tr.Capacity)
	}
	if len(tr.Events) > 4 {
		t.Fatalf("%d events from a 4-slot ring", len(tr.Events))
	}
	if tr.Dropped == 0 {
		t.Fatal("overflowing recording reported no drops")
	}
}

// TestWithRecorderLive pins the caller-owned-ring contract: the solve
// records into the provided Flight (readable mid-run via Since — here
// checked post-run), still returns the full recording on Result.Trace,
// and places bit-identically to a WithTrace solve of the same seed.
func TestWithRecorderLive(t *testing.T) {
	p := traceProblem(t)
	base := []placer.Option{
		placer.WithAlgorithm("seqpair"),
		placer.WithSeed(17),
		placer.WithSchedule(traceSchedule()),
	}
	ring := obs.NewFlight(0)
	live, err := placer.Solve(context.Background(), p, append(base, placer.WithRecorder(ring))...)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("solve recorded nothing into the caller's ring")
	}
	if live.Trace == nil || len(live.Trace.Events) != ring.Len() {
		t.Fatalf("result trace has %d events, ring holds %d", len(live.Trace.Events), ring.Len())
	}
	if tail := ring.Since(0); len(tail) != ring.Len() {
		t.Fatalf("Since(0) drained %d of %d events", len(tail), ring.Len())
	}
	traced, err := placer.Solve(context.Background(), p, append(base, placer.WithTrace(0))...)
	if err != nil {
		t.Fatal(err)
	}
	if live.Cost != traced.Cost {
		t.Fatalf("recorder changed the cost: %v vs %v", live.Cost, traced.Cost)
	}
	for i := range traced.Placement {
		if live.Placement[i] != traced.Placement[i] {
			t.Fatalf("recorder moved module %d", i)
		}
	}
}

// TestPortfolioEngineTraces: a traced portfolio race retains every
// racer's recording behind the size cap, the winner's full recording
// stays on Trace, and a caller-owned ring is never shared with racers.
func TestPortfolioEngineTraces(t *testing.T) {
	p := traceProblem(t)
	ring := obs.NewFlight(0)
	res, err := placer.Solve(context.Background(), p,
		placer.WithPortfolio(),
		placer.WithSeed(5),
		placer.WithSchedule(traceSchedule()),
		placer.WithRecorder(ring),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 0 {
		t.Fatalf("portfolio racers recorded %d events into the shared ring; they must use private rings", ring.Len())
	}
	racers := placer.PortfolioAlgorithms()
	if len(res.EngineTraces) != len(racers) {
		t.Fatalf("EngineTraces has %d entries, want one per racer (%d)", len(res.EngineTraces), len(racers))
	}
	if res.Trace == nil || res.Trace.Method != res.Algorithm {
		t.Fatalf("winner trace %+v does not match winning algorithm %q", res.Trace, res.Algorithm)
	}
	seenWinner := false
	for i, tr := range res.EngineTraces {
		if tr.Method != racers[i] {
			t.Fatalf("EngineTraces[%d] is %q, want racing order %q", i, tr.Method, racers[i])
		}
		if len(tr.Events) > placer.MaxEngineTraceEvents {
			t.Fatalf("racer %q trace has %d events, over the %d cap", tr.Method, len(tr.Events), placer.MaxEngineTraceEvents)
		}
		if tr.Method == res.Algorithm {
			seenWinner = true
		}
	}
	if !seenWinner {
		t.Fatal("winner missing from EngineTraces")
	}

	// Single-engine solves keep EngineTraces empty: Trace is complete.
	single, err := placer.Solve(context.Background(), p,
		placer.WithAlgorithm("seqpair"), placer.WithSeed(5),
		placer.WithSchedule(traceSchedule()), placer.WithTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(single.EngineTraces) != 0 {
		t.Fatalf("single-engine solve grew EngineTraces: %d", len(single.EngineTraces))
	}
}
