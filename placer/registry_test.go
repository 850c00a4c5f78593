package placer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// fakeHierEngine is a hierarchical-only engine that claims portfolio
// eligibility; the portfolio must skip it anyway.
type fakeHierEngine struct{}

func (fakeHierEngine) Info() placer.Info {
	return placer.Info{Name: "x-test-hier", Hierarchical: true, Portfolio: true}
}

func (fakeHierEngine) Solve(ctx context.Context, p *placer.Problem, opt placer.EngineOptions) (*placer.Result, error) {
	panic("the portfolio must never race a hierarchical-only engine")
}

func TestRegisterDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	placer.Register("x-test-dup", func() placer.Engine { return fakeHierEngine{} })
	mustPanic("duplicate name", func() {
		placer.Register("x-test-dup", func() placer.Engine { return fakeHierEngine{} })
	})
	mustPanic("builtin name", func() {
		placer.Register(placer.SeqPair, func() placer.Engine { return fakeHierEngine{} })
	})
	mustPanic("empty name", func() {
		placer.Register("", func() placer.Engine { return fakeHierEngine{} })
	})
	mustPanic("nil factory", func() { placer.Register("x-test-nil", nil) })
}

// TestRegistryListsBuiltins: the built-in engines self-register in
// portfolio tie-break order, and KnownMethod follows the registry.
func TestRegistryListsBuiltins(t *testing.T) {
	want := []string{placer.SeqPair, placer.BStar, placer.TCG, placer.Slicing, placer.Absolute, placer.HBStar,
		placer.GeneticSeqPair, placer.GeneticAbsolute, placer.ESF, placer.RSF}
	var got []string
	for _, info := range placer.Algorithms() {
		got = append(got, info.Name)
	}
	if len(got) < len(want) {
		t.Fatalf("registry lists %v, want at least %v", got, want)
	}
	for i, name := range want { // built-ins first, in registration order
		if got[i] != name {
			t.Fatalf("registry order %v, want prefix %v", got, want)
		}
	}
	for _, name := range want {
		if !placer.Known(name) || !wire.KnownMethod(name) {
			t.Errorf("%s not known", name)
		}
	}
	if !wire.KnownMethod(wire.MethodPortfolio) {
		t.Error("portfolio not a known wire method")
	}
}

// TestPortfolioSkipsHierarchicalOnly: a hierarchical-only engine
// never races, even when its Info claims portfolio eligibility, and
// the racing order is the registration (tie-break) order.
func TestPortfolioSkipsHierarchicalOnly(t *testing.T) {
	placer.Register("x-test-hier", func() placer.Engine { return fakeHierEngine{} })
	got := placer.PortfolioAlgorithms()
	want := []string{placer.SeqPair, placer.BStar, placer.TCG}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("portfolio set %v, want %v", got, want)
	}
	// And a real race completes without ever invoking the fake (which
	// panics if raced).
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	res, err := placer.Solve(t.Context(), p,
		placer.WithPortfolio(), placer.WithSeed(1),
		placer.WithSchedule(placer.Schedule{MovesPerStage: 20, MaxStages: 10, StallStages: 10}))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range want {
		if res.Algorithm == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %q not in the portfolio %v", res.Algorithm, want)
	}
}

// TestUnknownAlgorithmOneMessage: placer.Solve, the wire options
// validation and the daemon's HTTP error all reject an unknown
// algorithm with the identical message (the CLI is covered in
// cmd/analogplace's tests, which share the same constructor).
func TestUnknownAlgorithmOneMessage(t *testing.T) {
	want := placer.ErrUnknownAlgorithm("sorcery").Error()

	p := &placer.Problem{Modules: []placer.Module{{Name: "A", W: 1, H: 1}}}
	if _, err := placer.Solve(t.Context(), p, placer.WithAlgorithm("sorcery")); err == nil || err.Error() != want {
		t.Errorf("placer.Solve: got %v, want %q", err, want)
	}

	o := wire.Options{Method: "sorcery"}
	if err := o.Validate(); err == nil || err.Error() != want {
		t.Errorf("wire.Options.Validate: got %v, want %q", err, want)
	}

	sched := service.New(service.Config{Workers: 1})
	defer sched.Close()
	srv := httptest.NewServer(service.NewHandler(sched))
	defer srv.Close()
	body := []byte(`{"problem":{"modules":[{"name":"A","w":1,"h":1}],"objective":{}},"options":{"method":"sorcery"}}`)
	res, err := http.Post(srv.URL+"/v1/place?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("daemon status %d, want 400", res.StatusCode)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Error != want {
		t.Errorf("daemon: got %q, want %q", msg.Error, want)
	}
}

// TestAlgorithmsEndpoint: GET /v1/algorithms serves the registry.
func TestAlgorithmsEndpoint(t *testing.T) {
	sched := service.New(service.Config{Workers: 1})
	defer sched.Close()
	srv := httptest.NewServer(service.NewHandler(sched))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var views []service.AlgorithmView
	if err := json.NewDecoder(res.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	byName := map[string]service.AlgorithmView{}
	for _, v := range views {
		byName[v.Name] = v
	}
	for _, name := range []string{placer.SeqPair, placer.HBStar, wire.MethodPortfolio} {
		if _, ok := byName[name]; !ok {
			t.Errorf("endpoint misses %q: %+v", name, views)
		}
	}
	if !byName[placer.SeqPair].Portfolio || byName[placer.SeqPair].Kind != "flat" {
		t.Errorf("seqpair misdescribed: %+v", byName[placer.SeqPair])
	}
	for _, name := range []string{placer.HBStar, placer.ESF, placer.RSF} {
		if v := byName[name]; v.Kind != "hierarchical" || v.Portfolio {
			t.Errorf("%s listed as %+v, want hierarchical and not portfolio-eligible", name, v)
		}
	}
	if strings.Contains(strings.ToLower(byName[wire.MethodPortfolio].Kind), "flat") {
		t.Errorf("portfolio entry should be the meta-method: %+v", byName[wire.MethodPortfolio])
	}
}
