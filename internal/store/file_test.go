// File-backend specifics beyond the shared contract: persistence
// across reopen, cross-instance visibility (the fleet-cache claim),
// LRU eviction and TTL on the memory backend, and the typed adapters'
// round-trips.
package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/placer"
)

func TestFilePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k", []byte("survives"), 0); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get("k")
	if err != nil || !ok || string(got) != "survives" {
		t.Fatalf("after reopen: %q ok=%v err=%v", got, ok, err)
	}
}

// TestFileCrossInstance is the fleet-cache property at the blob
// level: two Store handles on one directory — two daemon processes in
// miniature — see each other's writes, deletes, and TTLs.
func TestFileCrossInstance(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("shared", []byte("from-a"), 0); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get("shared")
	if err != nil || !ok || string(got) != "from-a" {
		t.Fatalf("instance b misses instance a's write: %q ok=%v err=%v", got, ok, err)
	}
	// TTL written by a is honored by b.
	if err := a.Put("fleeting", []byte("x"), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, ok, _ := b.Get("fleeting"); ok {
		t.Fatal("instance b served an entry past the TTL instance a wrote")
	}
	if err := b.Delete("shared"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get("shared"); ok {
		t.Fatal("instance a still hits after instance b's delete")
	}
}

// TestFileIgnoresTempFiles pins the atomicity mechanism: in-progress
// dot-prefixed temp files are invisible to Keys/Stats and unreadable
// as keys.
func TestFileIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-abandoned"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("real", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	keys, err := f.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "real" {
		t.Fatalf("Keys sees temp files: %v", keys)
	}
	st, _ := f.Stats()
	if st.Entries != 1 {
		t.Fatalf("Stats counts temp files: %+v", st)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(2)
	for _, k := range []string{"a", "b", "c"} {
		if err := m.Put(k, []byte(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := m.Get("a"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok, _ := m.Get(k); !ok {
			t.Fatalf("recent entry %q evicted", k)
		}
	}
	// Touch "b", insert "d": "c" is now the LRU victim.
	if _, ok, _ := m.Get("b"); !ok {
		t.Fatal("b missing")
	}
	if err := m.Put("d", []byte("d"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("c"); ok {
		t.Fatal("LRU evicted by insertion order, not recency")
	}
	if _, ok, _ := m.Get("b"); !ok {
		t.Fatal("recently-used entry evicted")
	}
	st, _ := m.Stats()
	if st.Entries != 2 {
		t.Fatalf("Stats = %+v, want 2 entries", st)
	}
}

// fullResult is a result with every nested slice and pointer set, so
// an adapter that aliases any of them shows it.
func fullResult() *wire.Result {
	tr := func(best float64) *wire.Trace {
		return &wire.Trace{Version: wire.Version, Method: placer.SeqPair, Capacity: 8, Events: []wire.TraceEvent{
			{Kind: wire.TraceKindStage, Best: best, Moves: 10, Accepted: 4},
		}}
	}
	return &wire.Result{
		Version:      wire.Version,
		Method:       placer.SeqPair,
		Cost:         42.5,
		Breakdown:    &wire.Breakdown{Area: 40, HPWL: 2.5},
		Violations:   []string{"overlap m1/m2"},
		Placement:    []wire.Placed{{Name: "m1", X: 1, Y: 2, W: 3, H: 4}},
		Trace:        tr(42.5),
		EngineTraces: []*wire.Trace{tr(42.5), tr(50)},
	}
}

// scribble writes through every slice and pointer of res.
func scribble(res *wire.Result) {
	res.Cost = -1
	res.Breakdown.Area = -1
	res.Violations[0] = "scribbled"
	res.Placement[0].X = -1
	res.Trace.Events[0].Moves = -1
	res.EngineTraces[1].Events[0].Accepted = -1
	res.EngineTraces[0] = nil
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTypedAdapters round-trips a wire.Result and a JobRecord through
// the adapters over both backends: a Get encodes to the bytes of the
// Put, and neither the value handed to Put nor one returned by Get
// shares memory with the stored entry.
func TestTypedAdapters(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			res := fullResult()
			want := mustJSON(t, res)
			rc := NewResultCache(mk(), 0)
			if err := rc.Put("hash1", res); err != nil {
				t.Fatal(err)
			}
			scribble(res)
			got, ok, err := rc.Get("hash1")
			if err != nil || !ok {
				t.Fatalf("ResultCache.Get: ok=%v err=%v", ok, err)
			}
			if g := mustJSON(t, got); g != want {
				t.Fatalf("Get after mutating the Put argument:\n got %s\nwant %s", g, want)
			}
			scribble(got)
			again, ok, err := rc.Get("hash1")
			if err != nil || !ok {
				t.Fatalf("second ResultCache.Get: ok=%v err=%v", ok, err)
			}
			if g := mustJSON(t, again); g != want {
				t.Fatalf("Get after mutating an earlier Get:\n got %s\nwant %s", g, want)
			}
			if st, err := rc.Stats(); err != nil || st.Entries != 1 || st.Bytes != int64(len(want)) {
				t.Fatalf("ResultCache.Stats = %+v (err %v), want 1 entry / %d bytes", st, err, len(want))
			}
			if _, ok, _ := rc.Get("absent"); ok {
				t.Fatal("ResultCache hit on absent hash")
			}
			if err := rc.Put("hash2", &wire.Result{Cost: math.NaN()}); err == nil {
				t.Fatal("ResultCache accepted a result JSON cannot encode")
			}

			js := NewJobStore(mk(), 0)
			rec := &JobRecord{ID: "job-7", Hash: "hash1", State: "done",
				Faults: []string{"scheduler/worker-panic"}, Result: fullResult(), FinishedMS: 1234}
			if err := js.Put(rec); err != nil {
				t.Fatal(err)
			}
			back, ok, err := js.Get("job-7")
			if err != nil || !ok {
				t.Fatalf("JobStore.Get: ok=%v err=%v", ok, err)
			}
			if g, w := mustJSON(t, back), mustJSON(t, rec); g != w {
				t.Fatalf("JobRecord round-trip:\n got %s\nwant %s", g, w)
			}
			if err := js.Put(&JobRecord{}); err == nil {
				t.Fatal("JobStore accepted a record without an id")
			}
		})
	}
}

// TestResultCacheCorruptEntryIsMiss: a torn or corrupt cached result
// is dropped and reported as an error, so the caller counts it and
// re-solves; the next Get is a clean miss, not an error forever. A
// memory entry written through the Store interface has no decoded
// form and takes the same path.
func TestResultCacheCorruptEntryIsMiss(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.Put("badhash", []byte("{not json"), 0); err != nil {
				t.Fatal(err)
			}
			rc := NewResultCache(s, 0)
			if _, ok, err := rc.Get("badhash"); ok || err == nil {
				t.Fatalf("corrupt entry: ok=%v err=%v, want an error", ok, err)
			}
			if _, ok, _ := s.Get("badhash"); ok {
				t.Fatal("corrupt entry not dropped")
			}
			if _, ok, err := rc.Get("badhash"); ok || err != nil {
				t.Fatalf("Get after the drop: ok=%v err=%v, want a clean miss", ok, err)
			}
			// A valid entry written around the adapter still decodes.
			if err := s.Put("raw", []byte(`{"version":1,"method":"seqpair","cost":3}`), 0); err != nil {
				t.Fatal(err)
			}
			if res, ok, err := rc.Get("raw"); !ok || err != nil || res.Cost != 3 {
				t.Fatalf("raw entry: res=%+v ok=%v err=%v", res, ok, err)
			}
		})
	}
}

// TestJobStoreCorruptEntryIsError is the job-store twin: the record is
// dropped, the error returned, and the id is then a clean miss.
func TestJobStoreCorruptEntryIsError(t *testing.T) {
	s := NewMemory(8)
	if err := s.Put("job-1", []byte("[]"), 0); err != nil {
		t.Fatal(err)
	}
	js := NewJobStore(s, 0)
	if _, ok, err := js.Get("job-1"); ok || err == nil {
		t.Fatalf("corrupt record: ok=%v err=%v, want an error", ok, err)
	}
	if _, ok, err := js.Get("job-1"); ok || err != nil {
		t.Fatalf("Get after the drop: ok=%v err=%v, want a clean miss", ok, err)
	}
}

// TestResultCacheConcurrent: goroutines putting, getting and mutating
// results under one hash never see a torn or mutated entry. Run under
// -race, it checks that the memory cache's shared decoded copy is only
// ever read.
func TestResultCacheConcurrent(t *testing.T) {
	rc := NewResultCache(NewMemory(8), 0)
	want := mustJSON(t, fullResult())
	if err := rc.Put("h", fullResult()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i%10 == 0 {
					if err := rc.Put("h", fullResult()); err != nil {
						t.Error(err)
						return
					}
				}
				res, ok, err := rc.Get("h")
				if !ok || err != nil {
					t.Errorf("Get: ok=%v err=%v", ok, err)
					return
				}
				b, _ := json.Marshal(res)
				if string(b) != want {
					t.Errorf("Get returned %s, want %s", b, want)
					return
				}
				scribble(res)
			}
		}()
	}
	wg.Wait()
}

// TestJobStoreSharesResults: cache-hit records of a few content hashes
// in a memory job store hold each distinct result once. Every Get (and
// the raw Memory value) equals json.Marshal of its Put, the byte
// accounting counts each record whole, a record whose result differs
// from its hash's shared one keeps its own, and eviction, expiry and
// deletion free a shared result with its last record.
func TestJobStoreSharesResults(t *testing.T) {
	const hashes = 3
	results := make([]*wire.Result, hashes)
	for h := range results {
		results[h] = fullResult()
		results[h].Cost = float64(h)
	}
	mem := NewMemory(1024)
	js := NewJobStore(mem, 0)
	want := make(map[string]string)
	for i := 0; i < 2000; i++ {
		h := i % hashes
		rec := &JobRecord{ID: fmt.Sprintf("job-%d", i), Hash: fmt.Sprintf("hash%d", h), State: "done",
			CacheHit: true, Result: results[h].Clone(), SubmittedMS: int64(i), FinishedMS: int64(i + 1)}
		if err := js.Put(rec); err != nil {
			t.Fatal(err)
		}
		want[rec.ID] = mustJSON(t, rec)
		scribble(rec.Result)
	}
	// A cancelled run's best-so-far under a shared hash: equal hash,
	// different result bytes, so it must not take the shared copy.
	odd := &JobRecord{ID: "job-odd", Hash: "hash0", State: "cancelled", Result: fullResult()}
	odd.Result.Cancelled = true
	if err := js.Put(odd); err != nil {
		t.Fatal(err)
	}
	want[odd.ID] = mustJSON(t, odd)

	ids, err := js.List()
	if err != nil || len(ids) != 1024 {
		t.Fatalf("List: %d ids (err %v), want 1024", len(ids), err)
	}
	var bytes int64
	for _, id := range ids {
		rec, ok, err := js.Get(id)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", id, ok, err)
		}
		if g := mustJSON(t, rec); g != want[id] {
			t.Fatalf("Get(%s):\n got %s\nwant %s", id, g, want[id])
		}
		scribble(rec.Result) // a Get never aliases the shared copy
		raw, _, _ := mem.Get(id)
		if string(raw) != want[id] {
			t.Fatalf("Memory.Get(%s):\n got %s\nwant %s", id, raw, want[id])
		}
		bytes += int64(len(raw))
	}
	if st, _ := js.Stats(); st.Entries != 1024 || st.Bytes != bytes {
		t.Fatalf("Stats = %+v, want 1024 entries / %d bytes", st, bytes)
	}
	// One shared copy per hash, plus the odd record's own.
	if n := liveRuns(mem); n != hashes+1 || len(mem.runs) != hashes {
		t.Fatalf("%d result copies live (%d shared), want %d (%d)", n, len(mem.runs), hashes+1, hashes)
	}
	for _, id := range ids {
		if err := js.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := js.Stats(); st.Entries != 0 || st.Bytes != 0 || len(mem.runs) != 0 {
		t.Fatalf("after deleting every record: Stats %+v, %d shared results held", st, len(mem.runs))
	}

	// Expiry frees them too.
	mem = NewMemory(8)
	js = NewJobStore(mem, time.Millisecond)
	if err := js.Put(&JobRecord{ID: "job-1", Hash: "hash0", State: "done", Result: fullResult()}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if keys, _ := mem.Keys(); len(keys) != 0 || len(mem.runs) != 0 {
		t.Fatalf("after expiry: %d keys, %d shared results held", len(keys), len(mem.runs))
	}
}

// liveRuns counts the distinct shared runs m's entries reference.
func liveRuns(m *Memory) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	runs := make(map[*sharedRun]bool)
	for el := m.order.Front(); el != nil; el = el.Next() {
		if r := el.Value.(*memEntry).run; r != nil {
			runs[r] = true
		}
	}
	return len(runs)
}
