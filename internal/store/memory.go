package store

import (
	"bytes"
	"container/list"
	"sync"
	"time"
)

// Memory is the in-process Store: a bounded LRU with lazy TTL expiry
// and byte accounting. It is the extraction of the scheduler's
// original hard-wired result cache — same recency-ordered eviction,
// now behind the Store interface so a file or network backend can
// replace it without touching the scheduler.
type Memory struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *memEntry
	byKey map[string]*list.Element
	bytes int64
	// runs holds the shared runs of entries stored by putShared, one
	// per share key. A run leaves it with the last entry referencing
	// it, so it never holds more runs than there are entries.
	runs map[string]*sharedRun
}

type memEntry struct {
	key string
	val []byte
	// dec is the decoded form of val when a typed adapter stored one
	// (see putDecoded); nil otherwise. Like val, it is never mutated.
	dec any
	// run, when set, is a shared run of bytes cut out of the value at
	// offset at: the entry's value is val[:at] + run.b + val[at:].
	run *sharedRun
	at  int
	exp time.Time // zero means no expiry
}

// sharedRun is a run of bytes held once for every entry that contains
// it (see putShared).
type sharedRun struct {
	key  string
	b    []byte
	refs int
}

// NewMemory returns an in-memory Store holding at most capacity
// entries; the least recently used entry is evicted beyond that.
func NewMemory(capacity int) *Memory {
	if capacity < 1 {
		capacity = 1
	}
	return &Memory{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element), runs: make(map[string]*sharedRun)}
}

// Put stores a copy of value (entries are immutable once in).
func (m *Memory) Put(key string, value []byte, ttl time.Duration) error {
	val := make([]byte, len(value))
	copy(val, value)
	return m.put(&memEntry{key: key, val: val}, ttl)
}

// putDecoded stores val, which the Memory takes over, together with
// dec, its decoded form (nil for none). A typed adapter passes a value
// nothing else references, so getDecoded can hand it back without a
// decode.
func (m *Memory) putDecoded(key string, val []byte, dec any, ttl time.Duration) error {
	return m.put(&memEntry{key: key, val: val, dec: dec}, ttl)
}

// putShared stores value, which is base with one contiguous run of
// bytes inserted, and takes over base; value is not kept, since
// shareLocked copies the run. The run is held once for every entry
// whose run under the same share key has equal bytes; Get and Stats
// see value as if it were stored whole.
func (m *Memory) putShared(key string, value, base []byte, share string, ttl time.Duration) error {
	at := 0
	for at < len(base) && value[at] == base[at] {
		at++
	}
	run := &sharedRun{key: share, b: value[at : at+len(value)-len(base)]}
	return m.put(&memEntry{key: key, val: base, run: run, at: at}, ttl)
}

// put stores e, replacing any entry under its key, and evicts the
// least recently used entries beyond the capacity.
func (m *Memory) put(e *memEntry, ttl time.Duration) error {
	if err := ValidKey(e.key); err != nil {
		return err
	}
	if ttl > 0 {
		e.exp = time.Now().Add(ttl)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.run != nil {
		e.run = m.shareLocked(e.run)
	}
	if el, ok := m.byKey[e.key]; ok {
		m.removeLocked(el)
	}
	m.byKey[e.key] = m.order.PushFront(e)
	m.bytes += e.size()
	for m.order.Len() > m.cap {
		m.removeLocked(m.order.Back())
	}
	return nil
}

// shareLocked returns the held run equal to run, with one more
// reference. A run the Memory does not hold yet is copied (so the
// caller's larger buffer is not kept alive) and held under its key,
// unless an unequal run holds that key; then it stays private to its
// entry.
func (m *Memory) shareLocked(run *sharedRun) *sharedRun {
	held, ok := m.runs[run.key]
	if ok && bytes.Equal(held.b, run.b) {
		held.refs++
		return held
	}
	run = &sharedRun{key: run.key, b: bytes.Clone(run.b), refs: 1}
	if !ok {
		m.runs[run.key] = run
	}
	return run
}

// Get returns a copy of the stored value; an expired entry is reaped
// and reported as a miss.
func (m *Memory) Get(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.liveLocked(key)
	if e == nil {
		return nil, false, nil
	}
	return e.copyVal(), true, nil
}

// getDecoded is Get for a typed adapter: it returns the entry's
// decoded form when it has one, and otherwise a copy of its bytes.
// The decoded form is shared, so the caller must not mutate it.
func (m *Memory) getDecoded(key string) (dec any, val []byte, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.liveLocked(key)
	switch {
	case e == nil:
		return nil, nil, false
	case e.dec != nil:
		return e.dec, nil, true
	}
	return nil, e.copyVal(), true
}

// liveLocked returns the live entry under key, marked most recently
// used, or nil; an expired entry is reaped on the way.
func (m *Memory) liveLocked(key string) *memEntry {
	el, ok := m.byKey[key]
	if !ok {
		return nil
	}
	e := el.Value.(*memEntry)
	if e.expired(time.Now()) {
		m.removeLocked(el)
		return nil
	}
	m.order.MoveToFront(el)
	return e
}

// Delete removes the entry if present.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[key]; ok {
		m.removeLocked(el)
	}
	return nil
}

// Keys lists live keys, reaping expired entries on the way.
func (m *Memory) Keys() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reapLocked(time.Now())
	keys := make([]string, 0, m.order.Len())
	for el := m.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*memEntry).key)
	}
	return keys, nil
}

// Stats reports live entry and byte totals.
func (m *Memory) Stats() (Stats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reapLocked(time.Now())
	return Stats{Entries: int64(m.order.Len()), Bytes: m.bytes}, nil
}

// Close drops all entries.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.order.Init()
	m.byKey = make(map[string]*list.Element)
	m.runs = make(map[string]*sharedRun)
	m.bytes = 0
	return nil
}

// copyVal returns a copy of the entry's value, its shared run
// included.
func (e *memEntry) copyVal() []byte {
	if e.run == nil {
		out := make([]byte, len(e.val))
		copy(out, e.val)
		return out
	}
	out := make([]byte, 0, e.size())
	out = append(out, e.val[:e.at]...)
	out = append(out, e.run.b...)
	return append(out, e.val[e.at:]...)
}

// size is the length of the entry's value.
func (e *memEntry) size() int64 {
	n := len(e.val)
	if e.run != nil {
		n += len(e.run.b)
	}
	return int64(n)
}

func (e *memEntry) expired(now time.Time) bool {
	return !e.exp.IsZero() && now.After(e.exp)
}

func (m *Memory) removeLocked(el *list.Element) {
	e := el.Value.(*memEntry)
	m.order.Remove(el)
	delete(m.byKey, e.key)
	m.bytes -= e.size()
	if r := e.run; r != nil {
		// The last entry referencing a held run frees it.
		if r.refs--; r.refs == 0 && m.runs[r.key] == r {
			delete(m.runs, r.key)
		}
	}
}

func (m *Memory) reapLocked(now time.Time) {
	var next *list.Element
	for el := m.order.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*memEntry).expired(now) {
			m.removeLocked(el)
		}
	}
}
