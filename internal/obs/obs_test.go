package obs

import (
	"context"
	"sort"
	"sync"
	"testing"
)

func TestDisarmedSpanIsNil(t *testing.T) {
	Disable()
	ResetSpans()
	ctx := context.Background()
	c2, sp := StartSpan(ctx, "request")
	if sp != nil {
		t.Fatal("disarmed StartSpan returned a span")
	}
	if c2 != ctx {
		t.Fatal("disarmed StartSpan derived a new context")
	}
	// Every method must be nil-safe.
	sp.SetAttr("k", "v")
	sp.End()
	if ChildSpan(ctx, "stage") != nil {
		t.Fatal("disarmed ChildSpan returned a span")
	}
	if got := Spans(); len(got) != 0 {
		t.Fatalf("disarmed tracer recorded %d spans", len(got))
	}
}

func TestSpanHierarchy(t *testing.T) {
	Enable()
	defer Disable()
	ResetSpans()
	ctx, root := StartSpan(context.Background(), "request", KV("hash", "abc"))
	ctx2, job := StartSpan(ctx, "job")
	stage := ChildSpan(ctx2, "stage", Int("stage", 3))
	stage.End()
	job.End()
	root.SetAttr("status", "done")
	root.End()

	spans := Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["job"].Parent != byName["request"].ID {
		t.Errorf("job parented to %d, want request %d", byName["job"].Parent, byName["request"].ID)
	}
	if byName["stage"].Parent != byName["job"].ID {
		t.Errorf("stage parented to %d, want job %d", byName["stage"].Parent, byName["job"].ID)
	}
	if byName["request"].Parent != 0 {
		t.Errorf("request has parent %d, want root", byName["request"].Parent)
	}
	var gotStatus bool
	for _, a := range byName["request"].Attrs {
		if a.Key == "status" && a.Value == "done" {
			gotStatus = true
		}
	}
	if !gotStatus {
		t.Error("SetAttr lost the status attribute")
	}
}

func TestContextWithSpanHandoff(t *testing.T) {
	Enable()
	defer Disable()
	ResetSpans()
	_, req := StartSpan(context.Background(), "request")
	id := req.ID()
	req.End()
	// A worker goroutine resumes under the request's span by id.
	ctx := ContextWithSpan(context.Background(), id)
	_, job := StartSpan(ctx, "job")
	job.End()
	spans := Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("handed-off job parented to %d, want %d", spans[1].Parent, spans[0].ID)
	}
}

func TestSpanRingOverwrite(t *testing.T) {
	Enable()
	defer func() { Disable(); SetSpanRingCapacity(0) }()
	SetSpanRingCapacity(4)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(context.Background(), "s")
		sp.End()
	}
	spans := Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatal("snapshot not ordered by id")
		}
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Record(Event{Kind: EventStage})
	if f.Len() != 0 || f.Dropped() != 0 || f.Capacity() != 0 || f.Snapshot() != nil {
		t.Fatal("nil flight not inert")
	}
}

func TestFlightRingOverwrite(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Record(Event{Kind: EventStage, Stage: int32(i)})
	}
	if f.Len() != 4 {
		t.Fatalf("len %d, want 4", f.Len())
	}
	if f.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", f.Dropped())
	}
	ev := f.Snapshot()
	if len(ev) != 4 {
		t.Fatalf("snapshot %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if int(e.Stage) != 6+i {
			t.Fatalf("event %d has stage %d, want %d (oldest overwritten first)", i, e.Stage, 6+i)
		}
	}
}

func TestFlightRecordNoAlloc(t *testing.T) {
	f := NewFlight(64)
	e := Event{Kind: EventStage, Temp: 1.5}
	allocs := testing.AllocsPerRun(100, func() {
		f.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per call, want 0", allocs)
	}
}

// TestFlightCanonicalOrder: concurrent recorders interleave
// nondeterministically, but Snapshot's canonical order depends only on
// the recorded values.
func TestFlightCanonicalOrder(t *testing.T) {
	snapshot := func() []Event {
		f := NewFlight(256)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for s := 0; s < 10; s++ {
					f.Record(Event{Kind: EventStage, Worker: int32(w), Stage: int32(s), Peer: -1, Best: float64(w*100 + s)})
				}
			}(w)
		}
		wg.Wait()
		f.Record(Event{Kind: EventExchange, Worker: 0, Peer: 1, Stage: 5})
		return f.Snapshot()
	}
	a, b := snapshot(), snapshot()
	if len(a) != len(b) || len(a) != 41 {
		t.Fatalf("snapshots have %d and %d events, want 41", len(a), len(b))
	}
	for i := range a {
		ea, eb := a[i], b[i]
		ea.Seq, eb.Seq = 0, 0 // arrival index is scheduler-dependent
		if ea != eb {
			t.Fatalf("event %d differs across runs: %+v vs %+v", i, ea, eb)
		}
	}
}

// TestFlightGrowsOnDemand: a recorder that has seen few events keeps a
// small ring while reporting its full capacity, and one driven past
// its capacity retains and orders exactly what a preallocated ring
// would — the newest capacity events, oldest first.
func TestFlightGrowsOnDemand(t *testing.T) {
	f := NewFlight(2048)
	for i := 0; i < 30; i++ {
		f.Record(Event{Kind: EventStage, Stage: int32(i)})
	}
	if got := f.Capacity(); got != 2048 {
		t.Fatalf("capacity %d, want 2048", got)
	}
	if got := cap(f.events); got > 64 {
		t.Fatalf("30 events hold a %d-slot ring", got)
	}
	if f.Len() != 30 || f.Dropped() != 0 {
		t.Fatalf("len %d dropped %d, want 30 and 0", f.Len(), f.Dropped())
	}
	for i, e := range f.Since(0) {
		if int(e.Stage) != i || e.Seq != uint64(i) {
			t.Fatalf("event %d = stage %d seq %d before any wrap", i, e.Stage, e.Seq)
		}
	}

	// Wrap a 100-event ring (grown 16 → 32 → 64 → 100) with 250
	// events recorded out of stage order, so Snapshot's canonical sort
	// and Since's arrival order differ.
	const capacity, total = 100, 250
	f = NewFlight(capacity)
	for i := 0; i < total; i++ {
		f.Record(Event{Kind: EventStage, Stage: int32((i * 7) % 13), Worker: int32(i)})
	}
	if f.Capacity() != capacity || len(f.events) != capacity || f.Len() != capacity || f.Dropped() != total-capacity {
		t.Fatalf("capacity %d slots %d len %d dropped %d", f.Capacity(), len(f.events), f.Len(), f.Dropped())
	}
	since := f.Since(0)
	if len(since) != capacity {
		t.Fatalf("Since(0) returned %d events, want %d", len(since), capacity)
	}
	for i, e := range since {
		if want := total - capacity + i; int(e.Seq) != want || int(e.Worker) != want {
			t.Fatalf("Since event %d = seq %d worker %d, want %d", i, e.Seq, e.Worker, want)
		}
	}
	if tail := f.Since(total - 3); len(tail) != 3 || tail[0].Seq != total-3 {
		t.Fatalf("Since(%d) = %+v, want the last 3 events", total-3, tail)
	}
	snap := f.Snapshot()
	want := append([]Event(nil), since...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].Stage != want[j].Stage {
			return want[i].Stage < want[j].Stage
		}
		return want[i].Seq < want[j].Seq
	})
	if len(snap) != len(want) {
		t.Fatalf("Snapshot returned %d events, want %d", len(snap), len(want))
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("Snapshot event %d = %+v, want %+v", i, snap[i], want[i])
		}
	}
	// Full ring: recording no longer allocates.
	if allocs := testing.AllocsPerRun(100, func() { f.Record(Event{Kind: EventStage}) }); allocs != 0 {
		t.Fatalf("Record on a full ring allocates %v per call", allocs)
	}
}

func TestFlightCapacityClamp(t *testing.T) {
	if got := NewFlight(0).Capacity(); got != DefaultFlightEvents {
		t.Errorf("NewFlight(0) capacity %d, want default %d", got, DefaultFlightEvents)
	}
	if got := NewFlight(1 << 30).Capacity(); got != maxFlightEvents {
		t.Errorf("NewFlight(1<<30) capacity %d, want clamp %d", got, maxFlightEvents)
	}
}

// TestFlightSince pins the live-streaming read: Since(seq) returns
// only the arrival-ordered tail at or past seq, clamped to the
// retained window after overwrites, and nothing once drained.
func TestFlightSince(t *testing.T) {
	var nilf *Flight
	if nilf.Since(0) != nil {
		t.Fatal("nil flight Since not inert")
	}
	f := NewFlight(4)
	if f.Since(0) != nil {
		t.Fatal("empty flight returned events")
	}
	f.Record(Event{Kind: EventStage, Stage: 0})
	f.Record(Event{Kind: EventStage, Stage: 1})
	ev := f.Since(0)
	if len(ev) != 2 || ev[0].Seq != 0 || ev[1].Seq != 1 {
		t.Fatalf("Since(0) = %+v, want seqs [0 1]", ev)
	}
	next := ev[len(ev)-1].Seq + 1
	if got := f.Since(next); got != nil {
		t.Fatalf("drained flight returned %+v", got)
	}
	f.Record(Event{Kind: EventStage, Stage: 2})
	ev = f.Since(next)
	if len(ev) != 1 || ev[0].Stage != 2 || ev[0].Seq != 2 {
		t.Fatalf("incremental Since = %+v, want the one new event", ev)
	}
	// Overflow the ring: a reader far behind is clamped to the retained
	// window (oldest events are gone, newest kept, in arrival order).
	for i := 3; i < 10; i++ {
		f.Record(Event{Kind: EventStage, Stage: int32(i)})
	}
	ev = f.Since(0)
	if len(ev) != 4 {
		t.Fatalf("Since(0) after overflow returned %d events, want capacity 4", len(ev))
	}
	for i, e := range ev {
		if int(e.Stage) != 6+i || e.Seq != uint64(6+i) {
			t.Fatalf("event %d = stage %d seq %d, want %d", i, e.Stage, e.Seq, 6+i)
		}
	}
}
