package service

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/placer"
)

// overLimit is a body one byte over maxRequestBytes.
func overLimit() []byte { return bytes.Repeat([]byte{'x'}, maxRequestBytes+1) }

// TestReadBodyChunkedOverLimit: a chunked body, whose length no header
// declares, answers 413 once it passes maxRequestBytes.
func TestReadBodyChunkedOverLimit(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	req, err := http.NewRequest(http.MethodPost, h.srv.URL+"/v1/place", bytes.NewReader(overLimit()))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // unknown, so the client sends it chunked
	resp, err := h.httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body over the limit: %d, want 413", resp.StatusCode)
	}
}

// TestReadBodyDeclaredOverLimit: a body declaring a Content-Length
// over the limit answers 413 before any of it is read, so answering it
// allocates no buffer for the body at all.
func TestReadBodyDeclaredOverLimit(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := NewHandler(s)
	const declared = 1 << 30
	req := httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(overLimit()))
	req.ContentLength = declared
	w := &discardWriter{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared %d bytes: %d, want 413", declared, w.code)
	}
	n := after.TotalAlloc - before.TotalAlloc
	if n >= 64<<10 {
		t.Fatalf("reading a body that declares %d bytes allocated %d", declared, n)
	}
	t.Logf("answering a %d-byte body that declares %d bytes allocated %d B", maxRequestBytes+1, declared, n)
}

// TestReadBodyShortOfContentLength: a body that ends before its
// Content-Length answers 400.
func TestReadBodyShortOfContentLength(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	conn, err := net.Dial("tcp", h.srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"problem":{"modules":[]}}`
	fmt.Fprintf(conn, "POST /v1/place HTTP/1.1\r\nHost: placed\r\nContent-Length: %d\r\n\r\n%s", 2*len(body), body)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(out, []byte("reading body")) {
		t.Fatalf("body short of its Content-Length: %d %s, want 400 reading body", resp.StatusCode, out)
	}
}

// TestPooledBodyNotRetained: request bodies share pooled buffers, so
// nothing may keep a slice of one. Two different bodies of one length
// go through the same buffer, then the first again; after each POST
// every memo entry still holds the bytes of the body its hash is of,
// and the repeat answers the first body's hash and result.
func TestPooledBodyNotRetained(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := NewHandler(s)
	body := func(seed int64) []byte {
		req := millerRequest(t, placer.SeqPair)
		req.Options.Seed = seed
		return mustJSON(t, req)
	}
	first, second := body(1), body(2)
	if len(first) != len(second) || bytes.Equal(first, second) {
		t.Fatal("the two bodies must differ at one length")
	}
	bodyOf := make(map[string][]byte) // content hash → body
	solve := func(b []byte) JobView {
		t.Helper()
		code, out := post(h, b)
		if code != http.StatusOK {
			t.Fatalf("POST: %d %s", code, out)
		}
		v := view(t, out)
		waitRecorded(t, s, v.ID)
		bodyOf[v.Hash] = b
		s.memo.mu.Lock()
		defer s.memo.mu.Unlock()
		if n := s.memo.order.Len(); n != len(bodyOf) {
			t.Fatalf("the memo holds %d entries, want %d", n, len(bodyOf))
		}
		for el := s.memo.order.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*memoEntry); !bytes.Equal(e.body, bodyOf[e.hash]) {
				t.Fatalf("the memo entry of hash %s holds other bytes:\n%s", e.hash, e.body)
			}
		}
		return v
	}
	want := solve(first)
	solve(second)
	again := solve(first)
	if !again.CacheHit || again.Hash != want.Hash || string(mustJSON(t, again.Result)) != string(mustJSON(t, want.Result)) {
		t.Fatalf("repeat of the first body answered %+v, want a hit on %s with the first result", again, want.Hash)
	}
}
