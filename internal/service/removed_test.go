package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
	"repro/placer"
)

// removedMethods are engines the registry once served: requests naming
// them are now unknown methods, but job records of past solves remain.
var removedMethods = []string{"tcg", "slicing", "absolute", "genetic:absolute"}

// TestRemovedMethods: a request naming a removed engine gets exactly
// the 400 an unknown method gets, on both POST endpoints; the listing
// serves only the kept engines; and a stored job record whose result
// names a removed engine still answers byte for byte, so upgrading a
// daemon over a shared store strands no record.
func TestRemovedMethods(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	single := func(method string) []byte {
		return mustJSON(t, millerRequest(t, method))
	}
	batch := func(method string) []byte {
		return mustJSON(t, wire.BatchRequest{Items: []wire.Request{*millerRequest(t, method)}})
	}
	for _, ep := range []struct {
		path string
		body func(string) []byte
	}{{"/v1/place", single}, {"/v1/place:batch", batch}} {
		code, want := h.do(http.MethodPost, ep.path, ep.body("nosuch"))
		if code != http.StatusBadRequest {
			t.Fatalf("%s nosuch: %d %s, want 400", ep.path, code, want)
		}
		for _, name := range removedMethods {
			code, got := h.do(http.MethodPost, ep.path, ep.body(name))
			quoted := []byte(`\"` + name + `\"`)
			if code != http.StatusBadRequest || !bytes.Contains(got, quoted) {
				t.Errorf("%s %s: %d %s, want 400 naming it", ep.path, name, code, got)
				continue
			}
			if got = bytes.ReplaceAll(got, quoted, []byte(`\"nosuch\"`)); !bytes.Equal(got, want) {
				t.Errorf("%s %s answers\n%s\nwhere nosuch answers\n%s", ep.path, name, got, want)
			}
		}
	}

	code, body := h.do(http.MethodGet, "/v1/algorithms", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/algorithms: %d %s", code, body)
	}
	var infos []placer.Info
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, info := range infos {
		if !strings.HasPrefix(info.Name, "x-test-") { // fakes this package's tests register
			names = append(names, info.Name)
		}
	}
	want := []string{"seqpair", "bstar", "hbstar", "genetic:seqpair", "esf", "rsf", wire.MethodPortfolio}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("GET /v1/algorithms lists %v, want %v", names, want)
	}

	// A record of a past tcg solve, as a daemon that served tcg stored it.
	dir := t.TempDir()
	fs, err := store.NewFile(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &store.JobRecord{
		ID: "old-000001", Hash: strings.Repeat("ab", 32), State: string(StateDone),
		Result: &wire.Result{
			Version: 1, Name: "miller_opamp", Method: "tcg", Cost: 12000.5,
			Breakdown: &wire.Breakdown{Area: 11000, HPWL: 900, Overlap: 100.5},
			BBoxW:     100, BBoxH: 110, AreaUsage: 1.25, Legal: true,
			Stages: 60, Moves: 9000, RuntimeMS: 42,
			Placement: []wire.Placed{{Name: "A", X: 0, Y: 0, W: 10, H: 20}, {Name: "B", X: 10, Y: 0, W: 5, H: 5}},
		},
		SubmittedMS: 1700000000000, FinishedMS: 1700000000042,
	}
	if err := store.NewJobStore(fs, 0).Put(rec); err != nil {
		t.Fatal(err)
	}
	wantView := `{"id":"old-000001","state":"done","hash":"` + rec.Hash + `","result":{"version":1,"name":"miller_opamp","method":"tcg","cost":12000.5,` +
		`"breakdown":{"area":11000,"hpwl":900,"overlap":100.5},"bbox_w":100,"bbox_h":110,"area_usage":1.25,` +
		`"legal":true,"stages":60,"moves":9000,"runtime_ms":42,` +
		`"placement":[{"name":"A","x":0,"y":0,"w":10,"h":20},{"name":"B","x":10,"y":0,"w":5,"h":5}]}}` + "\n"
	for i := 0; i < 2; i++ { // two fresh schedulers over the one store
		js, err := store.NewFile(filepath.Join(dir, "jobs"))
		if err != nil {
			t.Fatal(err)
		}
		h := newHarness(t, Config{Workers: 1, Jobs: store.NewJobStore(js, 0)})
		code, body := h.do(http.MethodGet, "/v1/jobs/"+rec.ID, nil)
		if code != http.StatusOK || string(body) != wantView {
			t.Errorf("scheduler %d: GET the stored tcg job: %d\n%s\nwant\n%s", i, code, body, wantView)
		}
	}
}
