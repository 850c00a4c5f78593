package placer_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// pinNames are the pinned benchmarks: the Miller op amp on seqpair,
// hbstar, esf, rsf and the portfolio race, and a synthetic n=1000
// sequence-pair instance on a short schedule. The request and result
// fixtures under testdata were produced by the pre-refactor
// service.Solve path (the dispatch-switch implementation this API
// replaced), so agreement here proves the registry refactor changed no
// placement. The
// n120_temper fixture was generated immediately before the
// observability instrumentation landed in the annealing loops, so it
// additionally pins that recording hooks perturb nothing — the
// tempered path exercises the exchange sweep, whose instrumented
// Metropolis test must consume randomness exactly as before. The esf
// and rsf placements equal what the shape-function enumeration gave
// on the canonical Miller tree before it became a registry engine.
var pinNames = []string{"miller_seqpair", "miller_hbstar", "miller_esf", "miller_rsf", "miller_portfolio", "n1000_seqpair", "n120_temper"}

func readPin(t *testing.T, name string) (req *wire.Request, want *wire.Result) {
	t.Helper()
	reqData, err := os.ReadFile(filepath.Join("testdata", "pin_"+name+"_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	req, err = wire.DecodeRequest(reqData)
	if err != nil {
		t.Fatal(err)
	}
	resData, err := os.ReadFile(filepath.Join("testdata", "pin_"+name+"_result.json"))
	if err != nil {
		t.Fatal(err)
	}
	want = &wire.Result{}
	if err := json.Unmarshal(resData, want); err != nil {
		t.Fatal(err)
	}
	return req, want
}

func checkPinned(t *testing.T, path string, want *wire.Result, got *wire.Result) {
	t.Helper()
	if got.Method != want.Method {
		t.Errorf("%s: method %q, pre-refactor %q", path, got.Method, want.Method)
	}
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v, pre-refactor %v", path, got.Cost, want.Cost)
	}
	if got.Stages != want.Stages || got.Moves != want.Moves {
		t.Errorf("%s: stages/moves %d/%d, pre-refactor %d/%d", path, got.Stages, got.Moves, want.Stages, want.Moves)
	}
	if len(got.Placement) != len(want.Placement) {
		t.Fatalf("%s: %d placed modules, pre-refactor %d", path, len(got.Placement), len(want.Placement))
	}
	for i := range want.Placement {
		if got.Placement[i] != want.Placement[i] {
			t.Fatalf("%s: module %d placed %+v, pre-refactor %+v", path, i, got.Placement[i], want.Placement[i])
		}
	}
}

// TestPinServiceSolve: the daemon/CLI-shared solve path must
// reproduce the pre-refactor placements bit for bit.
func TestPinServiceSolve(t *testing.T) {
	for _, name := range pinNames {
		t.Run(name, func(t *testing.T) {
			req, want := readPin(t, name)
			got, err := service.Solve(t.Context(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPinned(t, "service.Solve", want, got)
			if got.Breakdown == nil {
				t.Error("result carries no cost breakdown")
			}
		})
	}
}

// TestPinPublicSolve: driving placer.Solve directly with the
// equivalent functional options must give the same placements again —
// the public API adds no hidden divergence over the service adapter.
func TestPinPublicSolve(t *testing.T) {
	for _, name := range pinNames {
		t.Run(name, func(t *testing.T) {
			req, want := readPin(t, name)
			opts := []placer.Option{
				placer.WithSeed(req.Options.Seed),
				placer.WithWorkers(req.Options.Workers),
				placer.WithSchedule(req.Options.Schedule()),
			}
			if req.Options.TemperChains > 0 {
				opts = append(opts, placer.WithTempering(req.Options.TemperChains, req.Options.ExchangeEvery))
			}
			if req.Options.Method == wire.MethodPortfolio {
				opts = append(opts, placer.WithPortfolio())
			} else {
				opts = append(opts, placer.WithAlgorithm(req.Options.Method))
			}
			res, err := placer.Solve(t.Context(), &req.Problem.Problem, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != want.Method {
				t.Errorf("algorithm %q, pre-refactor %q", res.Algorithm, want.Method)
			}
			if res.Cost != want.Cost {
				t.Errorf("cost %v, pre-refactor %v", res.Cost, want.Cost)
			}
			if len(res.Placement) != len(want.Placement) {
				t.Fatalf("%d placed modules, pre-refactor %d", len(res.Placement), len(want.Placement))
			}
			for i, m := range res.Placement {
				w := want.Placement[i]
				if m.Name != w.Name || m.X != w.X || m.Y != w.Y || m.W != w.W || m.H != w.H {
					t.Fatalf("module %d placed %+v, pre-refactor %+v", i, m, w)
				}
			}
			// The breakdown must decompose the cost exactly: the shares
			// sum to Cost bit for bit (same summation order as the
			// model's own Cost()).
			sum := 0.0
			for _, tc := range res.Breakdown {
				sum += tc.Cost
			}
			if sum != res.Cost {
				t.Errorf("breakdown sums to %v, cost is %v", sum, res.Cost)
			}
		})
	}
}
