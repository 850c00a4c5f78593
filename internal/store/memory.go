package store

import (
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
}

type memEntry struct {
	key string
	val []byte
	// dec is the decoded form of val when a typed adapter stored one
	// (see putDecoded); nil otherwise. Like val, it is never mutated.
	dec any
	exp time.Time // zero means no expiry
}

// NewMemory returns an in-memory Store holding at most capacity
// entries; the least recently used entry is evicted beyond that.
func NewMemory(capacity int) *Memory {
	if capacity < 1 {
		capacity = 1
	}
	return &Memory{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

// Put stores a copy of value (entries are immutable once in).
func (m *Memory) Put(key string, value []byte, ttl time.Duration) error {
	val := make([]byte, len(value))
	copy(val, value)
	return m.putDecoded(key, val, nil, ttl)
}

// putDecoded stores val, which the Memory takes over, together with
// dec, its decoded form (nil for none). A typed adapter passes a value
// nothing else references, so getDecoded can hand it back without a
// decode.
func (m *Memory) putDecoded(key string, val []byte, dec any, ttl time.Duration) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	var exp time.Time
	if ttl > 0 {
		exp = time.Now().Add(ttl)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[key]; ok {
		e := el.Value.(*memEntry)
		m.bytes += int64(len(val)) - int64(len(e.val))
		e.val, e.dec, e.exp = val, dec, exp
		m.order.MoveToFront(el)
		return nil
	}
	m.byKey[key] = m.order.PushFront(&memEntry{key: key, val: val, dec: dec, exp: exp})
	m.bytes += int64(len(val))
	for m.order.Len() > m.cap {
		m.removeLocked(m.order.Back())
	}
	return nil
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
	m.bytes = 0
	return nil
}

func (e *memEntry) copyVal() []byte {
	out := make([]byte, len(e.val))
	copy(out, e.val)
	return out
}

func (e *memEntry) expired(now time.Time) bool {
	return !e.exp.IsZero() && now.After(e.exp)
}

func (m *Memory) removeLocked(el *list.Element) {
	e := el.Value.(*memEntry)
	m.order.Remove(el)
	delete(m.byKey, e.key)
	m.bytes -= int64(len(e.val))
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
