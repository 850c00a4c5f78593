//go:build !race

// The race detector drops a share of sync.Pool puts at random, so a
// byte count taken under it measures the detector, not the daemon.
package service

import (
	"net/http"
	"runtime"
	"testing"
)

// TestPlaceHitGarbage bounds what a memo hit of an n=1000 request
// allocates through the handler: its result copy, whose JSON is the
// bulk of it, plus 16 KiB. Reading the body and encoding the job record
// reuse pooled buffers.
func TestPlaceHitGarbage(t *testing.T) {
	body := hitBody(t)
	s := New(Config{Workers: 1})
	defer s.Close()
	h := NewHandler(s)
	code, out := post(h, body)
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, out)
	}
	v := view(t, out)
	waitRecorded(t, s, v.ID) // the result is cached by now
	result := mustJSON(t, v.Result)
	hit := func() {
		if code := postDiscard(h, body); code != http.StatusOK {
			t.Fatalf("hit: %d", code)
		}
	}
	for range 4 { // fill the pools
		hit()
	}
	const hits = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range hits {
		hit()
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	limit := uint64(len(result)) + 16<<10
	if perHit > limit {
		t.Fatalf("a hit allocates %d B, want at most %d (result JSON %d B + 16 KiB)", perHit, limit, len(result))
	}
	t.Logf("a hit allocates %d B; result JSON %d B", perHit, len(result))
}
