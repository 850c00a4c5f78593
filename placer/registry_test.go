package placer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// fakeHierEngine is a hierarchical-only engine that claims portfolio
// eligibility; the portfolio must skip it anyway.
type fakeHierEngine struct{}

func (fakeHierEngine) Solve(ctx context.Context, p *placer.Problem, opt placer.EngineOptions) (*placer.Result, error) {
	panic("the portfolio must never race a hierarchical-only engine")
}

func newFakeHier() placer.Engine { return fakeHierEngine{} }

// Registered once per test binary, so the tests stay rerunnable
// under -count.
func init() {
	placer.Register(placer.Info{Name: "x-test-hier", Kind: "hierarchical", Portfolio: true}, newFakeHier)
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
	mustPanic("duplicate name", func() {
		placer.Register(placer.Info{Name: "x-test-hier"}, newFakeHier)
	})
	mustPanic("builtin name", func() {
		placer.Register(placer.Info{Name: placer.SeqPair}, newFakeHier)
	})
	mustPanic("empty name", func() {
		placer.Register(placer.Info{}, newFakeHier)
	})
	mustPanic("nil factory", func() { placer.Register(placer.Info{Name: "x-test-nil"}, nil) })
	mustPanic("unknown refused term", func() {
		placer.Register(placer.Info{Name: "x-test-term", Refuses: []string{"hpwl"}}, newFakeHier)
	})
	for _, name := range []string{"x-test-nil", "x-test-term"} {
		if _, ok := placer.Lookup(name); ok {
			t.Errorf("a panicking Register left %q registered", name)
		}
	}
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
		if _, ok := placer.Lookup(name); !ok || !wire.KnownMethod(name) {
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
	if info, ok := placer.Lookup("x-test-hier"); !ok || info.Portfolio {
		t.Fatalf("x-test-hier registered as %+v (%v), want it known and not portfolio-eligible", info, ok)
	}
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

// TestAlgorithmsEndpoint: GET /v1/algorithms serves the registry's
// Info: the name, kind, portfolio and description of every built-in
// and of the portfolio meta-method as they always read, and the
// capabilities each engine states.
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
	var infos []placer.Info
	if err := json.NewDecoder(res.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	byName := map[string]placer.Info{}
	for _, v := range infos {
		byName[v.Name] = v
	}
	type listed struct {
		kind        string
		portfolio   bool
		description string
	}
	for name, want := range map[string]listed{
		placer.SeqPair:         {"flat", true, "simulated annealing over symmetric-feasible sequence pairs (symmetry by construction)"},
		placer.BStar:           {"flat", true, "B*-tree compacted placement"},
		placer.TCG:             {"flat", true, "transitive closure graph placement"},
		placer.Slicing:         {"flat", false, "slicing tree (normalized Polish expression) placement"},
		placer.Absolute:        {"flat", false, "absolute-coordinate annealing baseline with overlap penalty"},
		placer.HBStar:          {"hierarchical", false, "hierarchical HB*-tree placement with ASF-B*-tree symmetry islands"},
		placer.GeneticSeqPair:  {"flat", false, "memetic search (order-crossover GA + annealing refinement) over symmetric-feasible sequence pairs"},
		placer.GeneticAbsolute: {"flat", false, "memetic search (uniform-crossover GA + annealing refinement) over absolute coordinates"},
		placer.ESF:             {"hierarchical", false, "deterministic hierarchically bounded enumeration with enhanced shape functions (Section IV)"},
		placer.RSF:             {"hierarchical", false, "deterministic hierarchically bounded enumeration with regular shape functions (Section IV)"},
		wire.MethodPortfolio:   {"portfolio", false, "races [seqpair bstar tcg] concurrently and keeps the best feasible placement"},
	} {
		v, ok := byName[name]
		if got := (listed{v.Kind, v.Portfolio, v.Description}); !ok || got != want {
			t.Errorf("%s listed as %+v (present %v), want %+v", name, got, ok, want)
		}
	}
	if v := byName["x-test-hier"]; v.Kind != "hierarchical" || v.Portfolio {
		t.Errorf("a hierarchical engine registered as portfolio-eligible is listed as %+v", v)
	}
	for _, name := range []string{placer.ESF, placer.RSF} {
		v := byName[name]
		if !v.IgnoresSchedule || v.MaxModules != 256 ||
			!reflect.DeepEqual(v.Refuses, []string{"outline", "proximity", "thermal"}) {
			t.Errorf("%s capabilities listed as %+v", name, v)
		}
	}
	for _, name := range []string{placer.Absolute, placer.GeneticAbsolute} {
		if !byName[name].MayOverlap {
			t.Errorf("%s not listed as possibly overlapping: %+v", name, byName[name])
		}
	}
	if v := byName[placer.SeqPair]; !v.Symmetric || v.MayOverlap || v.IgnoresSchedule || v.MaxModules != 0 || v.Refuses != nil {
		t.Errorf("seqpair capabilities listed as %+v", v)
	}
}
