package service

import (
	"bytes"
	"container/list"
	"hash/maphash"
	"sync"
)

// bodyMemo remembers the content hash of recently accepted POST
// /v1/place bodies, so a byte-identical repeat is answered from the
// result cache without being decoded, validated or hashed again. It
// is keyed by a maphash of the body, and every match is confirmed
// against the stored body, so only the exact bytes of a body that
// once decoded can match. It is a bounded LRU — in entries and in
// body bytes — with its own lock; it never takes the scheduler's.
type bodyMemo struct {
	mu         sync.Mutex
	seed       maphash.Seed
	maxEntries int
	maxBytes   int
	bytes      int        // sum of the stored bodies' lengths
	order      *list.List // front = most recent; values are *memoEntry
	byKey      map[uint64]*list.Element
	// key hashes a body; tests replace it to force collisions.
	key func(seed maphash.Seed, body []byte) uint64
}

type memoEntry struct {
	key  uint64
	body []byte
	hash string
}

func newBodyMemo(maxEntries, maxBytes int) *bodyMemo {
	return &bodyMemo{
		seed:       maphash.MakeSeed(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		byKey:      make(map[uint64]*list.Element),
		key:        maphash.Bytes,
	}
}

// lookup returns the content hash of body if the memo holds exactly
// these bytes. A nil memo knows nothing.
func (m *bodyMemo) lookup(body []byte) (string, bool) {
	if m == nil {
		return "", false
	}
	k := m.key(m.seed, body)
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[k]
	if !ok {
		return "", false
	}
	e := el.Value.(*memoEntry)
	if !bytes.Equal(e.body, body) {
		return "", false
	}
	m.order.MoveToFront(el)
	return e.hash, true
}

// remember records the content hash of a body that decoded, validated
// and hashed. It keeps a copy of body, replaces whatever entry had the
// same key, and evicts the least recently used entries beyond either
// bound. A body over the byte bound on its own is not kept.
func (m *bodyMemo) remember(body []byte, hash string) {
	if m == nil || len(body) > m.maxBytes {
		return
	}
	k := m.key(m.seed, body)
	e := &memoEntry{key: k, body: bytes.Clone(body), hash: hash}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[k]; ok {
		m.removeLocked(el)
	}
	m.byKey[k] = m.order.PushFront(e)
	m.bytes += len(e.body)
	for m.order.Len() > m.maxEntries || m.bytes > m.maxBytes {
		m.removeLocked(m.order.Back())
	}
}

func (m *bodyMemo) removeLocked(el *list.Element) {
	e := m.order.Remove(el).(*memoEntry)
	delete(m.byKey, e.key)
	m.bytes -= len(e.body)
}
