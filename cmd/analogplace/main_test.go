package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// cli runs the command in-process, capturing stdout.
func cli(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestAlgorithmsFlag: -algorithms lists every registry engine, the
// deterministic esf/rsf among them, and the portfolio meta-method.
func TestAlgorithmsFlag(t *testing.T) {
	out, err := cli(t, "-algorithms")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range placer.Algorithms() {
		if !strings.Contains(out, info.Name) {
			t.Errorf("listing misses registered algorithm %q:\n%s", info.Name, out)
		}
	}
	for _, name := range []string{"portfolio", "esf", "rsf", "hierarchical"} {
		if !strings.Contains(out, name) {
			t.Errorf("listing misses %q:\n%s", name, out)
		}
	}
}

// TestAlgorithmsFlagCapabilities: -algorithms shows what each engine
// states in its Info — seqpair's symmetry, absolute's possible
// overlaps, and esf's ignored schedule, module ceiling and refused
// terms on the line under its row.
func TestAlgorithmsFlagCapabilities(t *testing.T) {
	out, err := cli(t, "-algorithms")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(line, " ") {
			rows[f[0]] = f
			if i+1 < len(lines) && strings.HasPrefix(lines[i+1], " ") {
				rows[f[0]+" limits"] = []string{strings.TrimSpace(lines[i+1])}
			}
		}
	}
	if h := rows["ALGORITHM"]; len(h) < 5 || h[3] != "SYMMETRIC" || h[4] != "OVERLAP" {
		t.Fatalf("header %v", h)
	}
	for name, want := range map[string][2]string{
		placer.SeqPair: {"yes", "-"}, placer.BStar: {"-", "-"}, placer.Absolute: {"-", "may"}, placer.ESF: {"yes", "-"},
	} {
		if r := rows[name]; len(r) < 5 || r[3] != want[0] || r[4] != want[1] {
			t.Errorf("%s row %v, want SYMMETRIC %s and OVERLAP %s", name, r, want[0], want[1])
		}
	}
	want := "ignores seed, workers and schedule; at most 256 modules; refuses the outline, proximity, thermal terms"
	if got := rows[placer.ESF+" limits"]; len(got) != 1 || got[0] != want {
		t.Errorf("esf limits %q, want %q", got, want)
	}
	if got, ok := rows[placer.SeqPair+" limits"]; ok {
		t.Errorf("seqpair lists limits %q", got)
	}
}

// TestGeneticEndToEnd: the memetic registry entry is a first-class
// CLI citizen — -algorithms lists it, and a solve with
// -method genetic:seqpair produces a legal, constraint-satisfying
// placement over every module.
func TestGeneticEndToEnd(t *testing.T) {
	out, err := cli(t, "-algorithms")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "genetic:seqpair") || !strings.Contains(out, "genetic:absolute") {
		t.Fatalf("-algorithms misses the genetic engines:\n%s", out)
	}

	resOut := filepath.Join(t.TempDir(), "genetic.json")
	if _, err := cli(t, "-bench", "miller", "-method", "genetic:seqpair", "-seed", "2", "-json-out", resOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(resOut)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Method != "genetic:seqpair" {
		t.Fatalf("result method %q, want genetic:seqpair", res.Method)
	}
	if len(res.Placement) != 9 { // the Miller op amp's module count
		t.Fatalf("placed %d modules, want 9", len(res.Placement))
	}
	if !res.Legal {
		t.Fatal("genetic placement overlaps")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("genetic seqpair violates constraints: %v", res.Violations)
	}
}

// TestUnknownMethodSharedError: a typo'd method must fail with the
// placer registry's one shared message, with and without -json-out
// (the daemon shares it through wire.Options.Validate — see the
// service package's registry test).
func TestUnknownMethodSharedError(t *testing.T) {
	want := placer.ErrUnknownAlgorithm("sorcery").Error()
	if _, err := cli(t, "-bench", "miller", "-method", "sorcery"); err == nil || err.Error() != want {
		t.Errorf("text output: got %v, want %q", err, want)
	}
	if _, err := cli(t, "-bench", "miller", "-method", "sorcery", "-json-out", os.DevNull); err == nil || err.Error() != want {
		t.Errorf("wire output: got %v, want %q", err, want)
	}
}

// TestBreakdownInTextOutput: the text report surfaces the per-term
// cost breakdown, with and without -json-out.
func TestBreakdownInTextOutput(t *testing.T) {
	for _, extra := range [][]string{nil, {"-json-out", filepath.Join(t.TempDir(), "res.json")}} {
		out, err := cli(t, append([]string{"-bench", "miller", "-method", "seqpair"}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "cost breakdown:") || !strings.Contains(out, "area=") || !strings.Contains(out, "hpwl=") {
			t.Errorf("%v: output misses the cost breakdown:\n%s", extra, out)
		}
	}
}

// TestOutlineLine: -outline reports a generous outline as fitting and
// an impossible one as violated, with the outline term's cost.
func TestOutlineLine(t *testing.T) {
	out, err := cli(t, "-bench", "miller", "-method", "seqpair", "-outline", "1000x1000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "outline 1000x1000: bounding box fits") {
		t.Errorf("generous outline not reported as fitting:\n%s", out)
	}
	out, err = cli(t, "-bench", "miller", "-method", "seqpair", "-outline", "1x1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "outline 1x1: violated by ") || !strings.Contains(out, "outline=") {
		t.Errorf("impossible outline not reported as violated:\n%s", out)
	}
	if out, err = cli(t, "-bench", "miller", "-method", "seqpair"); err != nil || strings.Contains(out, "outline") {
		t.Errorf("no -outline, yet an outline line (err %v):\n%s", err, out)
	}
}

// TestPortfolioSolves: method portfolio runs without -json-out and
// reports the winning racer.
func TestPortfolioSolves(t *testing.T) {
	out, err := cli(t, "-bench", "miller", "-method", "portfolio")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bench=miller_opamp method=seqpair") || !strings.Contains(out, "legal: true") {
		t.Errorf("portfolio run output:\n%s", out)
	}
}

// TestDeterministicMethods: esf and rsf place a benchmark legally
// through the CLI's one solve path.
func TestDeterministicMethods(t *testing.T) {
	for _, m := range []string{"esf", "rsf"} {
		out, err := cli(t, "-bench", "comparator_v2", "-method", m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !strings.Contains(out, "method="+m+" modules=10") || !strings.Contains(out, "legal: true") {
			t.Errorf("%s output:\n%s", m, out)
		}
	}
}

// TestPinCLIVsDaemonVsGolden is the CLI leg of the refactor pin. For
// each pinned Miller method, the request the CLI assembles from -bench
// has the checked-in pin request's content hash, and the CLI's result,
// the placed daemon's answer to that request, and the checked-in
// golden agree bit for bit.
func TestPinCLIVsDaemonVsGolden(t *testing.T) {
	sched := service.New(service.Config{Workers: 1})
	defer sched.Close()
	srv := httptest.NewServer(service.NewHandler(sched))
	defer srv.Close()
	pins := filepath.Join("..", "..", "placer", "testdata")

	for _, method := range []string{"seqpair", "hbstar", "esf", "rsf", "portfolio"} {
		t.Run(method, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-bench", "miller", "-method", method}

			// Request leg: the CLI's request is the pinned one.
			reqPath := filepath.Join(dir, "req.json")
			if _, err := cli(t, append(args, "-json-req", reqPath)...); err != nil {
				t.Fatal(err)
			}
			reqBody, err := os.ReadFile(reqPath)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := requestHash(t, reqBody), requestHash(t, readFile(t, filepath.Join(pins, "pin_miller_"+method+"_request.json"))); got != want {
				t.Fatalf("CLI request hash %s, pinned request %s", got, want)
			}

			// CLI leg: solve through analogplace.
			resPath := filepath.Join(dir, "res.json")
			if _, err := cli(t, append(args, "-json-out", resPath)...); err != nil {
				t.Fatal(err)
			}
			cliRes := readResult(t, resPath)

			// Daemon leg: POST the very request the CLI solved.
			httpRes, err := http.Post(srv.URL+"/v1/place?wait=1", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Fatal(err)
			}
			defer httpRes.Body.Close()
			if httpRes.StatusCode != http.StatusOK {
				t.Fatalf("daemon status %d", httpRes.StatusCode)
			}
			var view struct {
				Result *wire.Result `json:"result"`
			}
			if err := json.NewDecoder(httpRes.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
			if view.Result == nil {
				t.Fatal("daemon job has no result")
			}

			// Wall-clock may differ, the daemon records a flight trace
			// the CLI did not ask for, and the golden predates the cost
			// breakdown.
			got := *cliRes
			got.RuntimeMS = 0
			daemon := *view.Result
			daemon.RuntimeMS, daemon.Trace, daemon.EngineTraces = 0, nil, nil
			if !reflect.DeepEqual(got, daemon) {
				t.Errorf("CLI result\n%+v\n!= daemon result\n%+v", got, daemon)
			}
			golden := readResult(t, filepath.Join(pins, "pin_miller_"+method+"_result.json"))
			got.Breakdown = nil
			if !reflect.DeepEqual(got, *golden) {
				t.Errorf("CLI result\n%+v\n!= golden\n%+v", got, *golden)
			}
		})
	}
}

func requestHash(t *testing.T, data []byte) string {
	t.Helper()
	req, err := wire.DecodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	h, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readResult(t *testing.T, path string) *wire.Result {
	t.Helper()
	res := &wire.Result{}
	if err := json.Unmarshal(readFile(t, path), res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlagValidation keeps the CLI's strict flag handling pinned
// through the FlagSet restructure.
func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"positional"},
		{"-workers", "0"},
		{"-wire", "-1"},
		{"-outline", "400x300junk"},
		{"-json", ""},
		{"-method", "esf", "-prox", "1"},
		{"-method", "esf", "-thermal", "1"},
		{"-json-req", "-", "-json-out", "-"},
	}
	for _, args := range cases {
		if _, err := cli(t, args...); err == nil {
			t.Errorf("%v: accepted, want error", args)
		}
	}
}
