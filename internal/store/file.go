package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// File is the file-backed Store: one file per key under a directory,
// an expiry envelope on the first line, atomic writes via temp file +
// rename. Because Get always reads from disk, two daemon processes
// pointed at the same directory see each other's entries — a result
// cached by one instance is a hit on the next, which is what makes a
// shared -store-dir a poor man's fleet cache. There is no capacity
// bound; expired entries are unlinked lazily on access.
type File struct {
	dir string
}

// envelope is the one-line JSON header preceding every payload.
type envelope struct {
	V int `json:"v"`
	// Exp is the expiry as Unix nanoseconds, 0 for no expiry. Expiry
	// travels with the file, so an instance that did not write the
	// entry still honors its TTL.
	Exp int64 `json:"exp"`
}

const envelopeVersion = 1

// NewFile opens (creating if needed) a file Store rooted at dir.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &File{dir: dir}, nil
}

// Put writes the entry atomically: the envelope and payload go to a
// dot-prefixed temp file (invisible to Keys, impossible as a key)
// which is then renamed over the final name, so a concurrent Get on
// this or another process sees either the old entry or the new one,
// never a torn write.
func (f *File) Put(key string, value []byte, ttl time.Duration) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	var exp int64
	if ttl > 0 {
		exp = time.Now().Add(ttl).UnixNano()
	}
	head, err := json.Marshal(envelope{V: envelopeVersion, Exp: exp})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(f.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(append(append(head, '\n'), value...))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(f.dir, key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	return nil
}

// Get reads the entry from disk (no in-process caching — that is what
// makes entries visible across instances). A missing or expired file
// is a miss; a corrupt envelope is an error.
func (f *File) Get(key string) ([]byte, bool, error) {
	if err := ValidKey(key); err != nil {
		return nil, false, err
	}
	raw, err := os.ReadFile(filepath.Join(f.dir, key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: get %q: %w", key, err)
	}
	head, payload, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, false, fmt.Errorf("store: get %q: truncated envelope", key)
	}
	var env envelope
	if err := json.Unmarshal(head, &env); err != nil || env.V != envelopeVersion {
		return nil, false, fmt.Errorf("store: get %q: bad envelope %q", key, head)
	}
	if env.expired(time.Now()) {
		os.Remove(filepath.Join(f.dir, key))
		return nil, false, nil
	}
	return payload, true, nil
}

// Delete unlinks the entry; a missing file is a no-op.
func (f *File) Delete(key string) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(f.dir, key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

// Keys lists live entries, unlinking expired ones on the way. Entries
// that vanish mid-walk (another instance's Delete or TTL reap) are
// skipped, not errors.
func (f *File) Keys() ([]string, error) {
	var keys []string
	err := f.walk(func(key string, _ int64) {
		keys = append(keys, key)
	})
	return keys, err
}

// Stats sums live entries and their payload bytes (envelope excluded).
func (f *File) Stats() (Stats, error) {
	var st Stats
	err := f.walk(func(_ string, payload int64) {
		st.Entries++
		st.Bytes += payload
	})
	return st, err
}

// Close is a no-op: the directory persists by design.
func (f *File) Close() error { return nil }

func (e envelope) expired(now time.Time) bool {
	return e.Exp != 0 && now.UnixNano() > e.Exp
}

// walk visits every live entry with its payload size, reaping expired
// ones.
func (f *File) walk(visit func(key string, payloadBytes int64)) error {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	now := time.Now()
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || name[0] == '.' || ValidKey(name) != nil {
			continue
		}
		env, headLen, size, err := f.readHeader(name)
		if err != nil {
			continue // vanished or torn mid-walk; skip
		}
		if env.expired(now) {
			os.Remove(filepath.Join(f.dir, name))
			continue
		}
		visit(name, size-headLen)
	}
	return nil
}

// readHeader parses just the envelope line of one entry.
func (f *File) readHeader(key string) (env envelope, headLen, size int64, err error) {
	fh, err := os.Open(filepath.Join(f.dir, key))
	if err != nil {
		return env, 0, 0, err
	}
	defer fh.Close()
	info, err := fh.Stat()
	if err != nil {
		return env, 0, 0, err
	}
	head, err := bufio.NewReader(fh).ReadBytes('\n')
	if err != nil {
		return env, 0, 0, err
	}
	if err := json.Unmarshal(head, &env); err != nil {
		return env, 0, 0, err
	}
	return env, int64(len(head)), info.Size(), nil
}
