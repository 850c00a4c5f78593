package service

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
	"repro/placer"
)

// TestGenerateGoldens regenerates the pin-test fixtures under
// placer/testdata: the canonical request and the solved result for
// each pinned benchmark. It only runs when GEN_GOLDEN=1. The
// checked-in fixtures were produced by the pre-refactor (dispatch
// switch) service.Solve at commit 0546e29, so the placer pin tests
// prove the registry refactor reproduces them bit for bit; regenerate
// only when a placement change is intentional, and say so in the
// commit.
func TestGenerateGoldens(t *testing.T) {
	if os.Getenv("GEN_GOLDEN") == "" {
		t.Skip("set GEN_GOLDEN=1 to regenerate pin fixtures")
	}
	dir := filepath.Join("..", "..", "placer", "testdata")
	for name, req := range PinRequests(t) {
		res, err := Solve(t.Context(), req, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.RuntimeMS = 0 // wall-clock is not pinnable
		reqJSON, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		resJSON, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "pin_"+name+"_request.json"), append(reqJSON, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "pin_"+name+"_result.json"), append(resJSON, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: cost %.6g stages %d", name, res.Cost, res.Stages)
	}
}

// PinRequests builds the pinned benchmark requests: the Miller op amp
// on seqpair, hbstar, esf, rsf and the portfolio race, plus a
// synthetic n=1000 sequence-pair instance on a short schedule.
func PinRequests(t *testing.T) map[string]*wire.Request {
	t.Helper()
	miller := benchProblem(t, "miller")
	reqs := map[string]*wire.Request{
		"miller_seqpair":   {Problem: *miller, Options: wire.Options{Method: placer.SeqPair, Seed: 1}},
		"miller_hbstar":    {Problem: *miller, Options: wire.Options{Method: placer.HBStar, Seed: 1}},
		"miller_portfolio": {Problem: *miller, Options: wire.Options{Method: wire.MethodPortfolio, Seed: 1}},
		"miller_esf":       {Problem: *miller, Options: wire.Options{Method: placer.ESF, Seed: 1}},
		"miller_rsf":       {Problem: *miller, Options: wire.Options{Method: placer.RSF, Seed: 1}},
		"n1000_seqpair": {Problem: *pinN1000(), Options: wire.Options{
			Method: placer.SeqPair, Seed: 7, MovesPerStage: 150, MaxStages: 8, StallStages: 8,
		}},
	}
	for _, r := range reqs {
		r.Problem.Normalize()
		r.Options.Normalize()
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// pinN1000 is the n=1000 sequence-pair pin instance: 1000 modules and
// 2000 random 3–6 pin nets from a fixed seed (the wirelength-heavy
// regime of the root benchmarks).
func pinN1000() *wire.Problem {
	const n = 1000
	rng := rand.New(rand.NewSource(42))
	p := &wire.Problem{Problem: placer.Problem{Name: "pin-n1000", Modules: make([]wire.Module, n)}}
	for i := range p.Modules {
		p.Modules[i] = wire.Module{
			Name: "m" + itoa(i),
			W:    1 + rng.Intn(50),
			H:    1 + rng.Intn(50),
		}
	}
	for len(p.Nets) < 2*n {
		pins := 3 + rng.Intn(4)
		seen := map[int]bool{}
		var net []int
		for len(net) < pins {
			m := rng.Intn(n)
			if !seen[m] {
				seen[m] = true
				net = append(net, m)
			}
		}
		p.Nets = append(p.Nets, net)
	}
	p.Objective.WireWeight = 1
	return p
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}
