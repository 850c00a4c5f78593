// The Store contract, run identically against every backend: a test
// that passes on Memory and fails on File (or vice versa) means the
// scheduler would behave differently depending on a flag, which is
// exactly what the interface exists to prevent.
package store

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// backends enumerates every Store implementation under test; a new
// backend joins the contract by adding a constructor here.
func backends(t *testing.T) map[string]func() Store {
	return map[string]func() Store{
		"memory": func() Store { return NewMemory(1024) },
		"file": func() Store {
			f, err := NewFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
}

func TestContract(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("PutGetDelete", func(t *testing.T) { testPutGetDelete(t, mk()) })
			t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, mk()) })
			t.Run("TTL", func(t *testing.T) { testTTL(t, mk()) })
			t.Run("KeysAndStats", func(t *testing.T) { testKeysAndStats(t, mk()) })
			t.Run("KeyValidation", func(t *testing.T) { testKeyValidation(t, mk()) })
			t.Run("Concurrent", func(t *testing.T) { testConcurrent(t, mk()) })
			t.Run("PutDoesNotRetain", func(t *testing.T) { testPutDoesNotRetain(t, mk()) })
		})
	}
}

func testPutGetDelete(t *testing.T, s Store) {
	defer s.Close()
	if _, ok, err := s.Get("absent"); ok || err != nil {
		t.Fatalf("Get(absent) = ok=%v err=%v, want miss", ok, err)
	}
	val := []byte(`{"cost": 12.5}`)
	if err := s.Put("abc123", val, 0); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("abc123")
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if string(got) != string(val) {
		t.Fatalf("Get = %q, want %q", got, val)
	}
	// The returned slice must be the caller's to mutate.
	got[0] = 'X'
	if again, _, _ := s.Get("abc123"); string(again) != string(val) {
		t.Fatalf("mutating a Get result corrupted the store: %q", again)
	}
	if err := s.Delete("abc123"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("abc123"); ok {
		t.Fatal("Get after Delete still hits")
	}
	if err := s.Delete("abc123"); err != nil {
		t.Fatalf("Delete of missing key must be a no-op, got %v", err)
	}
}

// testPutDoesNotRetain: the caller may reuse a value once Put returns.
func testPutDoesNotRetain(t *testing.T, s Store) {
	defer s.Close()
	val := []byte("stored-value")
	if err := s.Put("k", val, 0); err != nil {
		t.Fatal(err)
	}
	copy(val, "overwritten!")
	if got, ok, err := s.Get("k"); err != nil || !ok || string(got) != "stored-value" {
		t.Fatalf("Get after overwriting the Put value = %q ok=%v err=%v", got, ok, err)
	}
}

// TestJobStorePutDoesNotRetain: a JobStore encodes every record into a
// reused buffer, which holds only because no Store keeps a Put value.
// Records read back unchanged after later Puts have reused the buffer:
// without a result, with one, and with one whose bytes an earlier
// record of the same hash already holds (over a Memory, a shared run).
func TestJobStorePutDoesNotRetain(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			other := fullResult()
			other.Cost = 99
			recs := []*JobRecord{
				{ID: "job-1", Hash: "hash1", State: "done", Result: fullResult(), FinishedMS: 1},
				{ID: "job-2", Hash: "hash2", State: "failed", Error: "solver crashed"},
				{ID: "job-3", Hash: "hash1", State: "done", CacheHit: true, Result: fullResult(), FinishedMS: 3},
				{ID: "job-4", Hash: "hash4", State: "done", Result: other},
				{ID: "job-5", Hash: "hash5", State: "cancelled"},
			}
			js := NewJobStore(mk(), 0)
			want := make(map[string]string)
			for _, rec := range recs {
				if err := js.Put(rec); err != nil {
					t.Fatal(err)
				}
				want[rec.ID] = mustJSON(t, rec)
			}
			for _, rec := range recs {
				back, ok, err := js.Get(rec.ID)
				if err != nil || !ok {
					t.Fatalf("Get(%s): ok=%v err=%v", rec.ID, ok, err)
				}
				if g := mustJSON(t, back); g != want[rec.ID] {
					t.Fatalf("Get(%s) after later Puts:\n got %s\nwant %s", rec.ID, g, want[rec.ID])
				}
			}
		})
	}
}

func testOverwrite(t *testing.T, s Store) {
	defer s.Close()
	if err := s.Put("k", []byte("first-longer-value"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("second"), 0); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("k")
	if err != nil || !ok || string(got) != "second" {
		t.Fatalf("Get after overwrite = %q ok=%v err=%v", got, ok, err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Bytes != int64(len("second")) {
		t.Fatalf("Stats after overwrite = %+v, want 1 entry / %d bytes", st, len("second"))
	}
}

func testTTL(t *testing.T, s Store) {
	defer s.Close()
	if err := s.Put("ephemeral", []byte("x"), 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("durable", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("ephemeral"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	time.Sleep(40 * time.Millisecond)
	if _, ok, _ := s.Get("ephemeral"); ok {
		t.Fatal("entry readable past its TTL")
	}
	if _, ok, _ := s.Get("durable"); !ok {
		t.Fatal("ttl=0 entry expired")
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "durable" {
		t.Fatalf("Keys after expiry = %v, want [durable]", keys)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("Stats counts expired entries: %+v", st)
	}
}

func testKeysAndStats(t *testing.T, s Store) {
	defer s.Close()
	want := int64(0)
	for i := 0; i < 5; i++ {
		v := []byte(fmt.Sprintf("value-%d", i))
		want += int64(len(v))
		if err := s.Put(fmt.Sprintf("key-%d", i), v, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 {
		t.Fatalf("Keys = %v, want 5", keys)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for i := 0; i < 5; i++ {
		if k := fmt.Sprintf("key-%d", i); !seen[k] {
			t.Fatalf("Keys missing %q: %v", k, keys)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 5 || st.Bytes != want {
		t.Fatalf("Stats = %+v, want 5 entries / %d bytes", st, want)
	}
}

func testKeyValidation(t *testing.T, s Store) {
	defer s.Close()
	bad := []string{"", ".hidden", "a/b", "a b", "k\x00", string(make([]byte, MaxKeyLen+1))}
	for _, k := range bad {
		if err := s.Put(k, []byte("v"), 0); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", k)
		}
	}
	good := []string{"a", "UPPER.lower_mix-42", "sha256-deadbeef"}
	for _, k := range good {
		if err := s.Put(k, []byte("v"), 0); err != nil {
			t.Errorf("Put(%q): %v", k, err)
		}
	}
}

func testConcurrent(t *testing.T, s Store) {
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i%10)
				if err := s.Put(key, []byte(fmt.Sprintf("%d/%d", g, i)), 0); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					if _, err := s.Keys(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 80 {
		t.Fatalf("Stats after concurrent writes = %+v, want 80 entries", st)
	}
}
