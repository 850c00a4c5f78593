package placer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// TestDeterministicEngines: esf and rsf place every module of the
// smaller benchmarks legally through placer.Solve, with no symmetry
// violation. The larger circuits run in internal/core's full Table I.
func TestDeterministicEngines(t *testing.T) {
	for _, algorithm := range []string{placer.ESF, placer.RSF} {
		for _, name := range []string{"miller", "folded", "miller_v2", "comparator_v2", "folded_casc"} {
			p, err := placer.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := placer.Solve(t.Context(), p, placer.WithAlgorithm(algorithm))
			if err != nil {
				t.Fatalf("%s %s: %v", algorithm, name, err)
			}
			if len(res.Placement) != len(p.Modules) || !res.Legal || len(res.Violations) != 0 {
				t.Errorf("%s %s: placed %d of %d modules, legal %v, violations %v",
					algorithm, name, len(res.Placement), len(p.Modules), res.Legal, res.Violations)
			}
		}
	}
}

// TestDeterministicDeadline: the enumeration has no best-so-far, so a
// deadline that expires mid-run ends the solve promptly with the
// context's error. Uncancelled, biasynth esf runs for seconds.
func TestDeterministicDeadline(t *testing.T) {
	p, err := placer.Benchmark("biasynth")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := placer.Solve(t.Context(), p, placer.WithAlgorithm(placer.ESF),
		placer.WithDeadline(start.Add(100*time.Millisecond)))
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("deadline of 100ms honoured after %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("got %+v, %v; want the context's error", res, err)
	}
}

// TestDeterministicRejectsObjective: every front door refuses an esf
// problem with a term the enumeration cannot honour, naming the term:
// placer.Solve, and the daemon with a 400 before queuing anything.
func TestDeterministicRejectsObjective(t *testing.T) {
	for term, set := range map[string]func(*placer.Objective){
		"outline":   func(o *placer.Objective) { o.OutlineW, o.OutlineH = 400, 300 },
		"proximity": func(o *placer.Objective) { o.ProxWeight = 1 },
		"thermal":   func(o *placer.Objective) { o.ThermalWeight = 1 },
	} {
		p := miller(t)
		set(&p.Objective)
		if _, err := placer.Solve(t.Context(), p, placer.WithAlgorithm(placer.ESF)); err == nil || !strings.Contains(err.Error(), term) {
			t.Errorf("placer.Solve with a %s term: %v", term, err)
		}
	}

	sched := service.New(service.Config{Workers: 1})
	defer sched.Close()
	srv := httptest.NewServer(service.NewHandler(sched))
	defer srv.Close()
	p := wire.FromCanon(miller(t))
	p.Objective.OutlineW, p.Objective.OutlineH = 400, 300
	body, err := json.Marshal(wire.Request{Problem: *p, Options: wire.Options{Method: placer.ESF}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(srv.URL+"/v1/place?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, "outline") {
		t.Errorf("daemon answered %d %q, want 400 naming the outline term", res.StatusCode, msg.Error)
	}
}

// balanced returns n synthetic modules of random sizes under a
// balanced binary hierarchy with leaves of four modules: the shape
// the enhanced additions are slowest on, since both operands of every
// inner addition carry full shape functions.
func balanced(t *testing.T, n int) *placer.Problem {
	t.Helper()
	p, err := placer.Synthetic(placer.SyntheticSpec{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var level []*placer.Node
	for i := 0; i < n; i += 4 {
		leaf := &placer.Node{Name: fmt.Sprintf("leaf%d", i)}
		for _, m := range p.Modules[i:min(n, i+4)] {
			leaf.Devices = append(leaf.Devices, m.Name)
		}
		level = append(level, leaf)
	}
	for depth := 0; len(level) > 1; depth++ {
		var next []*placer.Node
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, &placer.Node{Name: fmt.Sprintf("n%d_%d", depth, i), Children: level[i : i+2]})
		}
		level = next
	}
	p.Hierarchy = level[0]
	return p
}

// TestDeterministicSizeCeiling: esf refuses a problem over
// MaxShapeModules modules at every front door (the daemon with a 400
// naming the limit), and a balanced hierarchy at the ceiling, which
// runs for most of a minute, stops within milliseconds of a deadline.
func TestDeterministicSizeCeiling(t *testing.T) {
	over := balanced(t, placer.MaxShapeModules+1)
	if _, err := placer.Solve(t.Context(), over, placer.WithAlgorithm(placer.ESF)); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("placer.Solve over the ceiling: %v", err)
	}
	sched := service.New(service.Config{Workers: 1})
	defer sched.Close()
	srv := httptest.NewServer(service.NewHandler(sched))
	defer srv.Close()
	body, err := json.Marshal(wire.Request{Problem: *wire.FromCanon(over), Options: wire.Options{Method: placer.ESF}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(srv.URL+"/v1/place?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(placer.MaxShapeModules); res.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, want) {
		t.Errorf("daemon answered %d %q, want 400 naming the limit of %s modules", res.StatusCode, msg.Error, want)
	}

	start := time.Now()
	_, err = placer.Solve(t.Context(), balanced(t, placer.MaxShapeModules), placer.WithAlgorithm(placer.ESF),
		placer.WithDeadline(start.Add(300*time.Millisecond)))
	if elapsed := time.Since(start); elapsed > 800*time.Millisecond {
		t.Errorf("deadline of 300ms honoured after %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want the context's error", err)
	}
}
