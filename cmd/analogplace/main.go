// Command analogplace places a benchmark circuit with a selectable
// algorithm from the placer registry and prints the resulting layout
// statistics, per-term cost breakdown and module coordinates.
//
// Usage:
//
//	analogplace [-method seqpair|bstar|hbstar|tcg|slicing|absolute|portfolio|esf|rsf]
//	            [-bench miller|folded|<table1-name>] [-seed N]
//	            [-workers N] [-outline WxH] [-outline-weight W]
//	            [-thermal W] [-prox W] [-wire W] [-area W] [-v]
//	            [-json FILE] [-json-out FILE] [-json-req FILE]
//	            [-algorithms]
//
// -algorithms lists the placer registry — every valid -method value
// with its kind (flat/hierarchical) and portfolio eligibility — and
// exits; the daemon serves the same listing on GET /v1/algorithms.
// The CLI performs no algorithm dispatch of its own: the wire path
// (-json/-json-out) runs any registered algorithm through
// placer.Solve, so a backend registered with placer.Register is
// immediately placeable here; the classic path is limited to the
// paper's built-in methods (it drives internal/core's ablation
// harness) and points registry-only algorithms at -json-out.
//
// -workers above 1 runs parallel multi-start annealing: that many
// independent chains on separate cores, keeping the best placement.
//
// The objective flags tune the composable cost model: -outline adds a
// fixed-outline penalty (the result reports whether the bounding box
// respects it, or the violation penalty), -thermal adds thermal
// mismatch over symmetry pairs, -prox pulls proximity groups together,
// and -wire/-area reweight the default terms.
//
// # Wire-format mode
//
// The CLI speaks the same canonical JSON wire format as the placed
// daemon (internal/wire). -json FILE (or "-" for stdin) reads a wire
// Problem or Request instead of -bench and solves it through the
// identical service path; -json-out FILE (or "-" for stdout) writes
// the wire Result; -json-req FILE emits the assembled Request itself
// (canonically encoded, without solving), so
//
//	analogplace -bench miller -method seqpair -json-req - | curl -s \
//	  -X POST --data-binary @- 'localhost:8080/v1/place?wait=1'
//
// and the local `analogplace -bench miller -method seqpair -json-out -`
// produce the same placement for the same request. -json-out with a
// benchmark runs the wire path too (method portfolio races
// seqpair/bstar/tcg); the deterministic esf/rsf methods have no wire
// representation and reject the -json* flags.
//
// One deliberate difference from the classic path: classic runs keep
// the paper's ablation semantics and strip symmetry groups from the
// problem for the non-seqpair flat methods (so bstar/tcg/slicing/
// absolute are the unconstrained baselines of the paper, and -thermal
// has no pairs to act on), while the wire path keeps every method on
// the identical composite objective — symmetry-pair thermal term
// included — so service results and portfolio racers compare like
// for like.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/hbstar"
	"repro/internal/render"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h printed usage; that is success, not an error
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "analogplace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("analogplace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	method := fs.String("method", "hbstar", "placement method: a placer-registry algorithm (see -algorithms), portfolio, esf or rsf")
	bench := fs.String("bench", "miller", "benchmark: miller, folded, or a Table I name (miller_v2, comparator_v2, folded_casc, buffer, biasynth, lnamixbias)")
	seed := fs.Int64("seed", 1, "random seed for stochastic methods")
	workers := fs.Int("workers", 1, "parallel multi-start annealing chains (1 = serial)")
	temperChains := fs.Int("temper-chains", 0, "parallel-tempering replica chains on a temperature ladder (0 = off; takes precedence over -workers)")
	exchangeEvery := fs.Int("exchange-every", 0, "stages between replica-exchange sweeps (0 with -temper-chains = independent multi-start)")
	outline := fs.String("outline", "", "fixed outline as WxH (e.g. 400x300); adds a quadratic excess penalty")
	outlineWeight := fs.Float64("outline-weight", 0, "fixed-outline penalty weight (0 = heuristic default)")
	thermalWeight := fs.Float64("thermal", 0, "thermal-mismatch weight over symmetry pairs (0 = off)")
	thermalSigma := fs.Float64("thermal-sigma", 0, "thermal decay length (0 = default 50)")
	proxWeight := fs.Float64("prox", 0, "proximity-group pull weight for flat placers (0 = off)")
	wireWeight := fs.Float64("wire", 0, "HPWL weight (0 = method default)")
	areaWeight := fs.Float64("area", 0, "bounding-box area weight (0 = default 1)")
	verbose := fs.Bool("v", false, "print module coordinates")
	svgPath := fs.String("svg", "", "write the placement as SVG to this file")
	jsonIn := fs.String("json", "", "read a wire-format Problem or Request from this file ('-' = stdin) instead of -bench")
	jsonOut := fs.String("json-out", "", "write the wire-format Result to this file ('-' = stdout)")
	jsonReq := fs.String("json-req", "", "write the assembled wire-format Request to this file ('-' = stdout) without solving; POST it to placed verbatim")
	traceOut := fs.String("trace-out", "", "record the solve's flight telemetry and write it as wire trace JSON to this file ('-' = stdout); feed it to placetrace for a chart")
	algorithms := fs.Bool("algorithms", false, "list the placer algorithm registry and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *algorithms {
		printAlgorithms(stdout)
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (all inputs are flags)", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1 (got %d)", *workers)
	}
	if *temperChains < 0 || *exchangeEvery < 0 {
		return fmt.Errorf("-temper-chains and -exchange-every must be non-negative")
	}
	for name, v := range map[string]float64{
		"-outline-weight": *outlineWeight, "-thermal": *thermalWeight,
		"-thermal-sigma": *thermalSigma, "-prox": *proxWeight,
		"-wire": *wireWeight, "-area": *areaWeight,
	} {
		if v < 0 {
			return fmt.Errorf("%s must be non-negative (got %v)", name, v)
		}
	}
	if set["json"] && set["bench"] {
		return fmt.Errorf("-json and -bench both name a problem; pass one")
	}

	var outlineW, outlineH int
	if *outline != "" {
		// Sscanf alone accepts trailing garbage ("400x300junk"); the
		// %s probe must find nothing after the pair.
		var trailing string
		n, _ := fmt.Sscanf(*outline, "%dx%d%s", &outlineW, &outlineH, &trailing)
		if n != 2 || outlineW <= 0 || outlineH <= 0 {
			return fmt.Errorf("bad -outline %q (want WxH, e.g. 400x300)", *outline)
		}
	}

	// esf/rsf are deterministic Section IV methods with no wire
	// representation: always the classic path, never -json.
	classicOnly := *method == "esf" || *method == "rsf"
	wireMode := set["json"] || set["json-out"] || set["json-req"] || set["trace-out"]
	if classicOnly && wireMode {
		return fmt.Errorf("method %q is deterministic and has no wire representation; drop -json/-json-out/-json-req/-trace-out", *method)
	}
	if set["json-req"] && (set["json-out"] || set["svg"] || set["trace-out"]) {
		return fmt.Errorf("-json-req emits the request without solving; it conflicts with -json-out/-svg/-trace-out")
	}
	for name, v := range map[string]string{"json": *jsonIn, "json-out": *jsonOut, "json-req": *jsonReq, "trace-out": *traceOut} {
		if set[name] && v == "" {
			return fmt.Errorf("-%s needs a file path ('-' for stdin/stdout)", name)
		}
	}
	if *jsonOut == "-" && *traceOut == "-" {
		return fmt.Errorf("-json-out and -trace-out cannot both write to stdout")
	}

	if wireMode {
		return runWire(wireArgs{
			method: *method, methodSet: set["method"],
			seed: *seed, seedSet: set["seed"],
			workers: *workers, workersSet: set["workers"],
			temperChains: *temperChains, temperChainsSet: set["temper-chains"],
			exchangeEvery: *exchangeEvery, exchangeEverySet: set["exchange-every"],
			jsonIn: *jsonIn, jsonOut: *jsonOut, jsonReq: *jsonReq, traceOut: *traceOut,
			objective: wire.Objective{
				AreaWeight:    *areaWeight,
				WireWeight:    *wireWeight,
				OutlineW:      outlineW,
				OutlineH:      outlineH,
				OutlineWeight: *outlineWeight,
				ProxWeight:    *proxWeight,
				ThermalWeight: *thermalWeight,
				ThermalSigma:  *thermalSigma,
			},
			objectiveSet: set["outline"] || set["outline-weight"] || set["thermal"] ||
				set["thermal-sigma"] || set["prox"] || set["wire"] || set["area"],
			bench:   *bench,
			verbose: *verbose, svgPath: *svgPath,
		}, stdout, stderr)
	}

	if *method == "portfolio" {
		return fmt.Errorf("method portfolio needs the wire path: add -json-out (or -json)")
	}
	b, err := pickBench(*bench)
	if err != nil {
		return err
	}
	// The registry (plus core's deterministic esf/rsf) is the only
	// method namespace; the CLI carries no dispatch of its own. The
	// classic path runs core's paper-ablation harness, so it only
	// knows the built-in methods — registered-but-not-built-in
	// algorithms run through the wire path.
	m, err := core.ParseMethod(*method)
	if err != nil {
		if placer.Known(*method) {
			return fmt.Errorf("method %q is registry-only and needs the wire path: add -json-out (or -json)", *method)
		}
		return err
	}
	obj := &core.Objective{
		AreaWeight:    *areaWeight,
		WireWeight:    *wireWeight,
		OutlineW:      outlineW,
		OutlineH:      outlineH,
		OutlineWeight: *outlineWeight,
		ProxWeight:    *proxWeight,
		ThermalWeight: *thermalWeight,
		ThermalSigma:  *thermalSigma,
	}
	opt := anneal.Options{
		Seed:          *seed,
		MovesPerStage: wire.DefaultMovesPerStage,
		MaxStages:     wire.DefaultMaxStages,
		StallStages:   wire.DefaultStallStages,
		Workers:       *workers,
		TemperChains:  *temperChains,
		ExchangeEvery: *exchangeEvery,
	}
	res, err := core.PlaceBenchObjective(b, m, opt, obj)
	if err != nil {
		return err
	}
	bb := res.Placement.BBox()
	fmt.Fprintf(stdout, "bench=%s method=%v modules=%d\n", b.Name, m, len(res.Placement))
	fmt.Fprintf(stdout, "bounding box: %dx%d  area usage: %.2f%%  legal: %v  runtime: %s\n",
		bb.W, bb.H, 100*res.AreaUsage, res.Legal, res.Runtime.Round(1e6))
	printTermBreakdown(stdout, res.Breakdown)
	if o := res.Outline; o != nil {
		if o.Fits() {
			fmt.Fprintf(stdout, "outline %dx%d: bounding box fits\n", o.W, o.H)
		} else {
			fmt.Fprintf(stdout, "outline %dx%d: violated by %dx%d, penalty %.4g\n",
				o.W, o.H, o.ExcessW, o.ExcessH, o.Penalty)
		}
	}
	printViolations(stdout, stringifyErrs(res.Violations))
	if *verbose {
		printCoords(stdout, res.Placement)
	}
	if *svgPath != "" {
		if err := writeSVG(*svgPath, res.Placement); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *svgPath)
	}
	return nil
}

// printAlgorithms lists the registry: one row per engine plus the
// portfolio meta-method and the classic-only deterministic methods.
func printAlgorithms(w io.Writer) {
	fmt.Fprintf(w, "%-16s %-13s %-10s %s\n", "ALGORITHM", "KIND", "PORTFOLIO", "DESCRIPTION")
	for _, v := range service.AlgorithmViews() {
		eligible := "-"
		if v.Portfolio {
			eligible = "yes"
		}
		if v.Kind == "portfolio" {
			eligible = ""
		}
		fmt.Fprintf(w, "%-16s %-13s %-10s %s\n", v.Name, v.Kind, eligible, v.Description)
	}
	fmt.Fprintf(w, "%-16s %-13s %-10s %s\n", "esf", "deterministic", "-", "Section IV enumeration with enhanced shape functions (classic path only)")
	fmt.Fprintf(w, "%-16s %-13s %-10s %s\n", "rsf", "deterministic", "-", "Section IV enumeration with regular shape functions (classic path only)")
}

// wireArgs carries the flag state into the wire-format path.
type wireArgs struct {
	method           string
	methodSet        bool
	seed             int64
	seedSet          bool
	workers          int
	workersSet       bool
	temperChains     int
	temperChainsSet  bool
	exchangeEvery    int
	exchangeEverySet bool
	jsonIn           string
	jsonOut          string
	jsonReq          string
	traceOut         string
	objective        wire.Objective
	objectiveSet     bool
	bench            string
	verbose          bool
	svgPath          string
}

// runWire is the CLI end of the wire format: assemble a wire.Request
// from a JSON file or a benchmark, solve it through the same
// service.Solve path the placed daemon uses, and report.
func runWire(a wireArgs, stdout, stderr io.Writer) error {
	var req *wire.Request
	fromFile := a.jsonIn != ""
	if fromFile {
		if a.objectiveSet {
			return fmt.Errorf("objective flags conflict with -json: the wire problem carries its own objective")
		}
		data, err := readInput(a.jsonIn)
		if err != nil {
			return err
		}
		req, err = decodeProblemOrRequest(data)
		if err != nil {
			return err
		}
	} else {
		bp, err := placer.Benchmark(a.bench)
		if err != nil {
			return err
		}
		p := wire.FromCanon(bp)
		if a.objectiveSet {
			applyObjectiveFlags(&p.Objective, a.objective)
		}
		if a.method == "hbstar" && a.objective.WireWeight == 0 {
			// Parity with the classic path: hbstar's historical default
			// wire weight, not the flat placers' 1.0 Benchmark encodes.
			p.Objective.WireWeight = hbstar.DefaultWireWeight
		}
		req = &wire.Request{Problem: *p}
	}
	// A file request solves exactly as the daemon would solve the same
	// bytes — CLI flags only override it when explicitly set. A
	// benchmark run keeps the classic CLI defaults (method hbstar,
	// seed 1, the historical schedule).
	if a.methodSet || !fromFile {
		if !wire.KnownMethod(a.method) {
			return placer.ErrUnknownAlgorithm(a.method)
		}
		req.Options.Method = a.method
	}
	if a.seedSet || !fromFile {
		req.Options.Seed = a.seed
	}
	if a.workersSet {
		req.Options.Workers = a.workers
	}
	if a.temperChainsSet {
		req.Options.TemperChains = a.temperChains
	}
	if a.exchangeEverySet {
		req.Options.ExchangeEvery = a.exchangeEvery
	}
	if !fromFile {
		req.Options.MovesPerStage = wire.DefaultMovesPerStage
		req.Options.MaxStages = wire.DefaultMaxStages
		req.Options.StallStages = wire.DefaultStallStages
	}
	if err := req.Validate(); err != nil {
		return err
	}

	if a.jsonReq != "" {
		// Emit the request itself — normalized like the canonical
		// encoding, but with timeout_ms preserved (Canonical strips it
		// for hashing only) — and stop before solving. req is ours to
		// normalize in place.
		req.Problem.Normalize()
		req.Options.Normalize()
		enc, err := json.Marshal(req)
		if err != nil {
			return err
		}
		return writeOutput(a.jsonReq, append(enc, '\n'), stdout)
	}

	// Solve honors the request's own timeout_ms, same as the daemon.
	// -trace-out rides as an extra placer option, exactly how the
	// scheduler attaches its per-job recorder.
	var extra []placer.Option
	if a.traceOut != "" {
		extra = append(extra, placer.WithTrace(0))
	}
	res, err := service.Solve(context.Background(), req, nil, extra...)
	if err != nil {
		return err
	}

	humanOut := stdout
	if a.jsonOut == "-" || a.traceOut == "-" {
		humanOut = stderr // keep stdout pure JSON for piping
	}
	name := res.Name
	if name == "" {
		name = "wire"
	}
	fmt.Fprintf(humanOut, "bench=%s method=%s modules=%d\n", name, res.Method, len(res.Placement))
	fmt.Fprintf(humanOut, "bounding box: %dx%d  area usage: %.2f%%  legal: %v  cost: %.4g  runtime: %dms\n",
		res.BBoxW, res.BBoxH, 100*res.AreaUsage, res.Legal, res.Cost, res.RuntimeMS)
	printWireBreakdown(humanOut, res.Breakdown)
	if res.Cancelled {
		fmt.Fprintln(humanOut, "run cancelled: placement is best-so-far")
	}
	printViolations(humanOut, res.Violations)
	pl := placementOf(res)
	if a.verbose {
		printCoords(humanOut, pl)
	}
	if a.jsonOut != "" {
		enc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := writeOutput(a.jsonOut, append(enc, '\n'), stdout); err != nil {
			return err
		}
		if a.jsonOut != "-" {
			fmt.Fprintln(humanOut, "wrote", a.jsonOut)
		}
	}
	if a.traceOut != "" {
		if res.Trace == nil {
			return fmt.Errorf("solve recorded no trace (external engines do not record)")
		}
		enc, err := json.MarshalIndent(res.Trace, "", "  ")
		if err != nil {
			return err
		}
		if err := writeOutput(a.traceOut, append(enc, '\n'), stdout); err != nil {
			return err
		}
		if a.traceOut != "-" {
			fmt.Fprintf(humanOut, "wrote %s (%d trace events)\n", a.traceOut, len(res.Trace.Events))
		}
	}
	if a.svgPath != "" {
		if err := writeSVG(a.svgPath, pl); err != nil {
			return err
		}
		fmt.Fprintln(humanOut, "wrote", a.svgPath)
	}
	return nil
}

// printTermBreakdown reports a classic-path cost decomposition: each
// term's weighted contribution, weights spelled out.
func printTermBreakdown(w io.Writer, terms []cost.TermValue) {
	if len(terms) == 0 {
		return
	}
	parts := make([]string, len(terms))
	for i, tv := range terms {
		parts[i] = fmt.Sprintf("%s=%.4g", tv.Name, tv.Weight*tv.Value)
	}
	fmt.Fprintf(w, "cost breakdown: %s\n", strings.Join(parts, "  "))
}

// printWireBreakdown reports a wire result's named per-term fields
// (weighted contributions; they sum to the result cost).
func printWireBreakdown(w io.Writer, bd *wire.Breakdown) {
	if bd == nil {
		return
	}
	var parts []string
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"area", bd.Area}, {"hpwl", bd.HPWL}, {"outline", bd.Outline},
		{"proximity", bd.Proximity}, {"thermal", bd.Thermal},
		{"overlap", bd.Overlap}, {"fragments", bd.Fragments},
	} {
		if f.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.4g", f.name, f.v))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "cost breakdown: %s\n", strings.Join(parts, "  "))
	}
}

// decodeProblemOrRequest accepts either a bare wire Problem or a full
// Request.
func decodeProblemOrRequest(data []byte) (*wire.Request, error) {
	req, reqErr := wire.DecodeRequest(data)
	if reqErr == nil {
		return req, nil
	}
	p, probErr := wire.DecodeProblem(data)
	if probErr == nil {
		return &wire.Request{Problem: *p}, nil
	}
	return nil, fmt.Errorf("input is neither a wire Request (%v) nor a Problem (%v)", reqErr, probErr)
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// applyObjectiveFlags overlays explicitly-set CLI weights on a
// benchmark-derived objective (zero flag values leave the benchmark's
// defaults alone, matching the classic path's semantics).
func applyObjectiveFlags(dst *wire.Objective, flags wire.Objective) {
	if flags.AreaWeight > 0 {
		dst.AreaWeight = flags.AreaWeight
	}
	if flags.WireWeight > 0 {
		dst.WireWeight = flags.WireWeight
	}
	if flags.OutlineW > 0 && flags.OutlineH > 0 {
		dst.OutlineW, dst.OutlineH = flags.OutlineW, flags.OutlineH
		dst.OutlineWeight = flags.OutlineWeight
	}
	if flags.ProxWeight > 0 {
		dst.ProxWeight = flags.ProxWeight
	}
	if flags.ThermalWeight > 0 {
		dst.ThermalWeight = flags.ThermalWeight
		dst.ThermalSigma = flags.ThermalSigma
	}
}

func placementOf(res *wire.Result) geom.Placement {
	pl := geom.Placement{}
	for _, m := range res.Placement {
		pl[m.Name] = geom.NewRect(m.X, m.Y, m.W, m.H)
	}
	return pl
}

func sortedNames(pl geom.Placement) []string {
	names := pl.Names()
	sort.Strings(names)
	return names
}

func printCoords(w io.Writer, pl geom.Placement) {
	for _, n := range sortedNames(pl) {
		r := pl[n]
		fmt.Fprintf(w, "  %-8s x=%-6d y=%-6d w=%-5d h=%-5d\n", n, r.X, r.Y, r.W, r.H)
	}
}

func printViolations(w io.Writer, vs []string) {
	if len(vs) > 0 {
		fmt.Fprintln(w, "constraint violations:")
		for _, v := range vs {
			fmt.Fprintln(w, "  -", v)
		}
	} else {
		fmt.Fprintln(w, "constraints: all satisfied")
	}
}

// writeOutput writes data to path, with "-" meaning the given stream.
func writeOutput(path string, data []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func stringifyErrs(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

func writeSVG(path string, pl geom.Placement) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return render.SVG(f, pl, render.Options{})
}

func pickBench(name string) (*circuits.Bench, error) {
	switch name {
	case "miller":
		return circuits.MillerOpAmp(), nil
	case "folded":
		return circuits.FoldedCascode(), nil
	}
	return circuits.TableIBench(name)
}
