package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeProblem fuzzes the strict decoder: arbitrary bytes must
// never panic, and whatever decodes successfully must round-trip
// canonically — encode(decode(b)) is a fixed point of the decoder.
// The checked-in corpus under testdata/fuzz/FuzzDecodeProblem seeds
// the interesting shapes; plain `go test` replays corpus + seeds,
// `go test -fuzz=FuzzDecodeProblem ./internal/wire` explores.
func FuzzDecodeProblem(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"version":1,"modules":[{"name":"A","w":4,"h":2}],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":4,"h":2},{"name":"B","w":4,"h":2}],` +
			`"symmetry":[{"pairs":[[0,1]]}],"nets":[[0,1]],"objective":{"wire_weight":1}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"hierarchy":{"name":"r","devices":["A"]},"objective":{}}`,
		`{"version":2,"modules":[{"name":"A","w":1,"h":1}],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"objective":{"outline_w":10,"outline_h":10}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"power":[1.5],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":-1,"h":1}],"objective":{}}`,
		`{"version":1,"modules":[{"name":"A","w":1,"h":1}],"nets":[[0,0]],"objective":{}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProblem(data) // must not panic, ever
		if err != nil {
			return
		}
		// Valid decode ⇒ canonical round-trip is exact.
		c1, err := p.Canonical()
		if err != nil {
			t.Fatalf("decoded problem fails to encode: %v\ninput: %q", err, data)
		}
		p2, err := DecodeProblem(c1)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v\ncanonical: %s", err, c1)
		}
		c2, err := p2.Canonical()
		if err != nil {
			t.Fatalf("re-decoded problem fails to encode: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding not a fixed point:\nfirst:  %s\nsecond: %s", c1, c2)
		}
		h1, err := p.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := p2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("hash changed across canonical round-trip: %s vs %s", h1, h2)
		}
	})
}

// FuzzDecodeBatchRequest fuzzes batch decoding the same way: arbitrary
// bytes must never panic, and a batch that decodes must re-encode to
// a fixed point of the decoder whose items keep their content
// addresses. The corpus under testdata/fuzz/FuzzDecodeBatchRequest
// covers the batch-level edges — empty, one over the item limit,
// trailing delimiters.
func FuzzDecodeBatchRequest(f *testing.F) {
	item := `{"problem":{"modules":[{"name":"A","w":4,"h":2},{"name":"B","w":4,"h":2}],` +
		`"symmetry":[{"pairs":[[1,0]]}],"nets":[[1,0]],"objective":{}},"options":{"seed":3}}`
	seeds := []string{
		``,
		`{}`,
		`{"items":null}`,
		`{"items":[]}`,
		`{"items":[` + item + `]}`,
		`{"items":[` + item + `,` + item + `]}`,
		`{"items":[` + item + `]}]`,
		`{"items":[{"problem":{"modules":[{"name":"A","w":1,"h":1}],"objective":{}},"options":{"method":"sorcery"}}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatchRequest(data) // must not panic, ever
		if err != nil {
			return
		}
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("decoded batch fails to encode: %v\ninput: %q", err, data)
		}
		b2, err := DecodeBatchRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded batch fails to decode: %v\nencoding: %s", err, enc)
		}
		enc2, err := json.Marshal(b2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("batch encoding not a fixed point:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
		for i := range b.Items {
			h1, err := b.Items[i].Hash()
			if err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
			h2, err := b2.Items[i].Hash()
			if err != nil {
				t.Fatalf("item %d after round-trip: %v", i, err)
			}
			if h1 != h2 {
				t.Fatalf("item %d hash changed across round-trip: %s vs %s", i, h1, h2)
			}
		}
	})
}
