// Package obs is the zero-dependency observability layer: hierarchical
// spans (request → job → engine → anneal → stage) threaded through
// context, and an allocation-bounded flight recorder capturing
// per-stage annealing telemetry (see flight.go). Like internal/fault,
// the package is built to cost nothing when idle: span creation is
// guarded by one atomic load and returns immediately when tracing is
// disarmed, and a nil *Flight records nothing on a nil-receiver check.
// Nothing here imports anything beyond the standard library, and the
// solver packages never pay more than that one load plus one pointer
// test per temperature stage when observability is off — the contract
// BenchmarkAnnealObsOverhead enforces.
//
// Spans are for wall-clock attribution ("where did this request spend
// its 400 ms"), so they carry time.Now timestamps and live in a
// process-wide ring served by the daemon's /debug/spans endpoint.
// Flight events are for search dynamics ("what did the annealer do"),
// so they carry no wall-clock at all: a flight recording of a
// deterministic solve is itself deterministic, byte for byte.
package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// armed gates span creation. Flight recorders are armed per solve by
// handing the run a non-nil *Flight instead.
var armed atomic.Bool

// Enable arms the span tracer process-wide.
func Enable() { armed.Store(true) }

// Disable disarms the span tracer. Spans already in the ring remain
// readable.
func Disable() { armed.Store(false) }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// KV builds a string attribute.
func KV(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }

// Span is one finished span in the ring: a named, timed slice of work
// with its parent link, so exporters can rebuild the tree.
type Span struct {
	ID         uint64    `json:"id"`
	Parent     uint64    `json:"parent,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// ActiveSpan is a span still running. The zero of the API is the nil
// ActiveSpan: every method is a no-op on nil, so call sites never
// branch on whether tracing is armed.
type ActiveSpan struct {
	span Span
}

// ctxKey carries the current span id through context.
type ctxKey struct{}

var nextSpanID atomic.Uint64

// StartSpan opens a span as a child of the span on ctx (if any) and
// returns a derived context carrying it. When the tracer is disarmed
// it returns ctx unchanged and a nil span — one atomic load, no
// allocation. ctx may be nil (treated as context.Background()).
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *ActiveSpan) {
	if !armed.Load() {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	parent, _ := ctx.Value(ctxKey{}).(uint64)
	s := &ActiveSpan{span: Span{
		ID:     nextSpanID.Add(1),
		Parent: parent,
		Name:   name,
		Start:  time.Now(),
		Attrs:  attrs,
	}}
	return context.WithValue(ctx, ctxKey{}, s.span.ID), s
}

// ChildSpan opens a span parented on ctx without deriving a new
// context — for leaf spans (per-stage timing) where pushing a context
// value per iteration would be waste.
func ChildSpan(ctx context.Context, name string, attrs ...Attr) *ActiveSpan {
	if !armed.Load() {
		return nil
	}
	var parent uint64
	if ctx != nil {
		parent, _ = ctx.Value(ctxKey{}).(uint64)
	}
	return &ActiveSpan{span: Span{
		ID:     nextSpanID.Add(1),
		Parent: parent,
		Name:   name,
		Start:  time.Now(),
		Attrs:  attrs,
	}}
}

// SetAttr adds an annotation to a running span. No-op on nil.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
}

// End finishes the span and publishes it to the ring. No-op on nil,
// so `defer sp.End()` is always safe.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.span.DurationNS = time.Since(s.span.Start).Nanoseconds()
	spanRing.add(s.span)
}

// ID returns the span's id (0 on nil), for parenting work that crosses
// a goroutine or queue boundary via ContextWithSpan.
func (s *ActiveSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// SpanID returns the span id ctx carries, 0 when none — the inverse
// of ContextWithSpan, for code that must stash the parent across a
// non-context boundary (a queued job picked up later by a worker).
func SpanID(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(ctxKey{}).(uint64)
	return id
}

// ContextWithSpan returns ctx carrying the given span id as the
// current parent — the hand-off for work resumed on another goroutine
// (a queued job picked up by a worker). A zero id returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// DefaultSpanRing is the span ring's default capacity.
const DefaultSpanRing = 4096

// ring is the fixed-capacity overwrite-oldest store of finished spans.
type ring struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	count int
}

var spanRing = &ring{buf: make([]Span, DefaultSpanRing)}

func (r *ring) add(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// SetSpanRingCapacity resizes the span ring, dropping recorded spans.
// Capacities below 1 reset to the default.
func SetSpanRingCapacity(n int) {
	if n < 1 {
		n = DefaultSpanRing
	}
	spanRing.mu.Lock()
	spanRing.buf = make([]Span, n)
	spanRing.next = 0
	spanRing.count = 0
	spanRing.mu.Unlock()
}

// Spans snapshots the ring's finished spans, oldest first by span id
// (the recording order of End calls can interleave across goroutines;
// ids are allocated at StartSpan, giving one stable order).
func Spans() []Span {
	spanRing.mu.Lock()
	out := make([]Span, 0, spanRing.count)
	start := spanRing.next - spanRing.count
	for i := 0; i < spanRing.count; i++ {
		out = append(out, spanRing.buf[(start+i+len(spanRing.buf))%len(spanRing.buf)])
	}
	spanRing.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ResetSpans clears the span ring (tests).
func ResetSpans() {
	spanRing.mu.Lock()
	spanRing.next = 0
	spanRing.count = 0
	spanRing.mu.Unlock()
}
