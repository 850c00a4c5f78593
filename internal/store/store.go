// Package store is the placement service's pluggable storage layer:
// one blob-level Store interface (content-hash keys, TTL, size
// accounting) with an in-memory LRU backend and a file-backed backend
// sharable between daemon instances, plus the typed adapters the
// scheduler actually talks to — ResultCache (canonical wire results
// keyed by request content hash) and JobStore (terminal job records
// keyed by job id). A Redis- or SQL-backed Store slots in behind the
// same interfaces without the scheduler noticing.
//
// The division of labor: Store moves bytes and owns expiry/eviction;
// the typed adapters own encoding (canonical JSON), and report an
// entry they cannot decode as an error after dropping it. Two shortcuts
// cross that line, both over the in-process Memory backend only:
//
//   - a ResultCache keeps a private decoded copy of each result in the
//     entry beside its bytes, so a cache hit is a deep copy instead of
//     a JSON decode. The bytes stay the entry's size and its sharable
//     form;
//   - a JobStore stores each record as its JSON without the result
//     plus the result's bytes, and records of one content hash whose
//     result bytes are equal share one copy of them, freed with the
//     last such record. Get and Stats still see each record's whole
//     JSON.
//
// Each adapter
// wraps its own backing Store (on disk: sibling subdirectories), so
// results and job records never contend for one namespace. All
// implementations are safe for concurrent use.
package store

import (
	"fmt"
	"time"
)

// Stats is a point-in-time size accounting of a Store.
type Stats struct {
	// Entries is the number of live (non-expired) entries.
	Entries int64
	// Bytes is the total payload size of the live entries.
	Bytes int64
}

// Store is the pluggable blob store. Keys are content hashes or job
// ids — ValidKey spells out the charset — values are opaque bytes.
//
// TTL semantics: ttl > 0 expires the entry that long after the Put;
// ttl == 0 stores without expiry. Expired entries are misses and are
// reaped lazily. Backends may additionally evict live entries under
// their own capacity policy (the memory backend is a bounded LRU), so
// a Put is never a durability promise — this is a cache-and-scratch
// tier, not a database.
type Store interface {
	// Put stores value under key, replacing any previous entry. It
	// does not retain value after it returns, so the caller may reuse
	// the slice.
	Put(key string, value []byte, ttl time.Duration) error
	// Get returns the value stored under key. The boolean reports
	// presence; an expired or evicted entry is an ordinary miss, while
	// the error reports backend failure (I/O, corruption).
	Get(key string) ([]byte, bool, error)
	// Delete removes the entry; deleting a missing key is a no-op.
	Delete(key string) error
	// Keys lists the live keys in unspecified order.
	Keys() ([]string, error)
	// Stats reports entry and byte accounting.
	Stats() (Stats, error)
	// Close releases backend resources. The Store is unusable after.
	Close() error
}

// MaxKeyLen bounds key length: long enough for a hex SHA-256 plus a
// typed-adapter namespace prefix, short enough for any filesystem.
const MaxKeyLen = 128

// ValidKey reports whether key is storable: 1..MaxKeyLen characters
// from [A-Za-z0-9._-], not starting with a dot (dot-files are the file
// backend's temp/scratch namespace). Both backends enforce it, so a
// key that works in memory never breaks on disk.
func ValidKey(key string) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("store: key length %d outside [1, %d]", len(key), MaxKeyLen)
	}
	if key[0] == '.' {
		return fmt.Errorf("store: key %q starts with a dot", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: key %q contains invalid byte %q", key, c)
		}
	}
	return nil
}
