package obs

import (
	"sort"
	"sync"
)

// EventKind tags one flight-recorder event.
type EventKind uint8

const (
	// EventStage is one completed temperature stage of one annealing
	// chain: temperature after cooling, best/current cost and
	// cumulative move counters.
	EventStage EventKind = iota + 1
	// EventExchange is one replica-exchange attempt between
	// neighboring tempering rungs Worker and Peer.
	EventExchange
	// EventCheckpoint is one best-so-far snapshot capture.
	EventCheckpoint
	// EventResume marks a run that warm-started from a checkpoint.
	EventResume
	// EventFailpoint is an injected fault observed on the solve path
	// (see internal/fault); Point names the failpoint.
	EventFailpoint
)

// String returns the wire spelling of the kind.
func (k EventKind) String() string {
	switch k {
	case EventStage:
		return "stage"
	case EventExchange:
		return "exchange"
	case EventCheckpoint:
		return "checkpoint"
	case EventResume:
		return "resume"
	case EventFailpoint:
		return "failpoint"
	}
	return "unknown"
}

// Event is one flight-recorder record. It is a flat value struct —
// no pointers except the rare Point label (a
// pre-existing constant string, so recording copies no string) — so a
// Flight's ring is one contiguous array.
//
// Events deliberately carry no wall-clock: a recording of a
// deterministic solve is deterministic byte for byte (spans carry the
// timing instead). Counters are cumulative per chain as of the event's
// stage.
type Event struct {
	Kind   EventKind
	Worker int32 // chain / tempering rung; -1 for ladder-wide or service-level events
	Stage  int32
	Temp   float64
	Best   float64
	Cur    float64

	Moves    int64
	Accepted int64
	Improved int64

	// Exchange fields: the partner rung and its state, plus whether
	// the Metropolis swap was accepted. Peer is -1 on non-exchange
	// events.
	Peer     int32
	PeerTemp float64
	PeerCost float64
	Accept   bool

	// Point names the failpoint on EventFailpoint records.
	Point string

	// Seq is the flight-local arrival index, stamped by Record.
	Seq uint64
}

// DefaultFlightEvents is the event capacity NewFlight substitutes for
// non-positive requests.
const DefaultFlightEvents = 2048

// maxFlightEvents caps the capacity a caller (ultimately an untrusted
// request, via the service's knob) can pin in memory: 1<<16 events of
// 120 B is ~8 MB.
const maxFlightEvents = 1 << 16

// minFlightSlots is the ring's first allocation: a short solve's
// handful of events never needs more.
const minFlightSlots = 16

// Flight is a fixed-capacity flight recorder: an overwrite-oldest
// ring of Events. The ring grows on demand, doubling up to its
// capacity, so a job that records a few dozen events keeps a few dozen
// slots rather than the full capacity for as long as its record is
// retained. All methods are safe for concurrent use and safe on a nil
// receiver (a nil *Flight is the disabled recorder), so recording
// sites guard with one pointer test.
type Flight struct {
	mu       sync.Mutex
	capacity int
	events   []Event // ring slots; len grows to capacity
	next     int
	count    int
	seq      uint64
	dropped  uint64
}

// NewFlight builds a recorder holding up to capacity events
// (DefaultFlightEvents when capacity ≤ 0, clamped to 1<<16).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	if capacity > maxFlightEvents {
		capacity = maxFlightEvents
	}
	return &Flight{capacity: capacity}
}

// Record appends one event, overwriting the oldest when full. No-op
// on a nil recorder. It allocates only while the ring grows, at most
// log2(capacity/16)+1 times over the recorder's life.
func (f *Flight) Record(e Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	e.Seq = f.seq
	f.seq++
	if f.count == len(f.events) {
		if len(f.events) < f.capacity {
			// Never wrapped: events[:count] are in arrival order, so the
			// grown ring continues at slot count.
			grown := make([]Event, min(max(2*len(f.events), minFlightSlots), f.capacity))
			copy(grown, f.events)
			f.events = grown
			f.next = f.count
		} else {
			f.dropped++
		}
	}
	f.events[f.next] = e
	f.next = (f.next + 1) % len(f.events)
	if f.count < len(f.events) {
		f.count++
	}
	f.mu.Unlock()
}

// Len reports the number of retained events (0 on nil).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// Dropped reports how many events were overwritten (0 on nil).
func (f *Flight) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Capacity reports the most events the ring retains (0 on nil).
func (f *Flight) Capacity() int {
	if f == nil {
		return 0
	}
	return f.capacity
}

// Since returns the retained events with Seq ≥ seq in arrival order
// (ascending Seq) — the live-streaming read: a poller passes the next
// sequence it has not yet seen and receives only the new tail, so an
// SSE handler can drain the ring incrementally while the solve is
// still recording into it. Events already overwritten are simply
// gone (the caller can detect the gap from the Seq jump). Arrival
// order of concurrent chains is scheduler-dependent; live streams
// trade the canonical order of Snapshot for immediacy. Nil recorders
// return nil.
func (f *Flight) Since(seq uint64) []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.count == 0 || f.seq <= seq {
		return nil
	}
	// The retained window is [f.seq-count, f.seq); events are stored in
	// arrival order around the ring.
	first := f.seq - uint64(f.count)
	if seq < first {
		seq = first
	}
	n := int(f.seq - seq)
	out := make([]Event, 0, n)
	start := f.next - n
	for i := 0; i < n; i++ {
		out = append(out, f.events[(start+i+len(f.events))%len(f.events)])
	}
	return out
}

// Snapshot returns the retained events in canonical order: by stage,
// then kind, then worker, then peer, then point, then arrival. The
// arrival order of concurrent chains is scheduler-dependent, but for
// a deterministic solve the recorded *values* are not — under the
// canonical order, a recording that lost no events to overwriting is
// bit-for-bit reproducible for a fixed seed. Nil recorders return nil.
func (f *Flight) Snapshot() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]Event, 0, f.count)
	start := f.next - f.count
	for i := 0; i < f.count; i++ {
		out = append(out, f.events[(start+i+len(f.events))%len(f.events)])
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		return a.Seq < b.Seq
	})
	return out
}
