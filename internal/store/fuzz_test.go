package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzFileGet writes arbitrary bytes as one file-store entry — what a
// torn write, a disk fault or another process could leave behind — and
// reads it back through File.Get and the typed adapters. Nothing may
// panic. File.Get hits only when the first line is a valid, unexpired
// version-1 envelope, and then returns exactly the bytes after that
// line. A payload an adapter cannot decode is deleted and reported
// as an error.
func FuzzFileGet(f *testing.F) {
	f.Add([]byte("{\"v\":1,\"exp\":0}\n{\"version\":1,\"method\":\"seqpair\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		fs, err := NewFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		const key = "entry"
		path := filepath.Join(dir, key)
		write := func() {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// The envelope rule, spelled out apart from File.Get.
		head, payload, cut := bytes.Cut(data, []byte{'\n'})
		var env struct {
			V   int   `json:"v"`
			Exp int64 `json:"exp"`
		}
		envOK := cut && json.Unmarshal(head, &env) == nil && env.V == 1
		now := time.Now().UnixNano()
		if envOK && env.Exp != 0 && env.Exp > now-int64(time.Minute) && env.Exp < now+int64(time.Minute) {
			t.Skip("expiry too close to the clock to call")
		}
		valid := envOK && (env.Exp == 0 || env.Exp > now)

		write()
		got, ok, err := fs.Get(key)
		if ok != valid {
			t.Fatalf("File.Get hit=%v (err %v), want hit=%v", ok, err, valid)
		}
		if ok && (err != nil || !bytes.Equal(got, payload)) {
			t.Fatalf("File.Get returned %q (err %v), want the payload %q", got, err, payload)
		}

		for _, adapter := range []struct {
			name    string
			get     func() (bool, error)
			decodes func([]byte) bool
		}{
			{
				"ResultCache",
				func() (bool, error) { _, ok, err := NewResultCache(fs, 0).Get(key); return ok, err },
				func(b []byte) bool { return json.Unmarshal(b, new(wire.Result)) == nil },
			},
			{
				"JobStore",
				func() (bool, error) { _, ok, err := NewJobStore(fs, 0).Get(key); return ok, err },
				func(b []byte) bool { return json.Unmarshal(b, new(JobRecord)) == nil },
			},
		} {
			write()
			ok, err := adapter.get()
			decodes := valid && adapter.decodes(payload)
			if ok != decodes {
				t.Fatalf("%s: hit=%v (err %v), want hit=%v", adapter.name, ok, err, decodes)
			}
			_, statErr := os.Stat(path)
			if decodes && statErr != nil {
				t.Fatalf("%s: hit entry gone: %v", adapter.name, statErr)
			}
			if valid && !decodes && (err == nil || !os.IsNotExist(statErr)) {
				t.Fatalf("%s: undecodable payload: err %v, file stat %v; want an error and the entry deleted", adapter.name, err, statErr)
			}
		}
	})
}
