// Command analogplace places a benchmark circuit with a selectable
// algorithm and prints the resulting layout statistics, per-term cost
// breakdown and module coordinates.
//
// Usage:
//
//	analogplace [-method seqpair|bstar|hbstar|tcg|slicing|absolute|esf|rsf|portfolio|...]
//	            [-bench miller|folded|<table1-name>] [-seed N]
//	            [-workers N] [-outline WxH] [-outline-weight W]
//	            [-thermal W] [-prox W] [-wire W] [-area W] [-v]
//	            [-json FILE] [-json-out FILE] [-json-req FILE]
//	            [-algorithms]
//
// -algorithms lists the placer registry — every valid -method value
// with its kind (flat/hierarchical), portfolio eligibility and what
// it guarantees and refuses (placer.Info) — and exits; the daemon
// serves the same listing on GET /v1/algorithms.
//
// Every method, registry algorithm or portfolio, takes one path: the
// CLI assembles a wire Request (internal/wire) from -bench and the
// flags, or reads it from -json, and solves it with service.Solve,
// the function the placed daemon runs. The CLI does no
// algorithm dispatch of its own, so a backend registered with
// placer.Register is placeable here at once, and a CLI run and a
// daemon run of the same request give the same placement. Method
// portfolio races seqpair/bstar/tcg.
//
// -workers above 1 runs parallel multi-start annealing: that many
// independent chains on separate cores, keeping the best placement.
//
// esf and rsf run Section IV's deterministic hierarchically bounded
// enumeration with enhanced or regular shape functions on the
// benchmark's canonical hierarchy (children sorted by name, the form
// the daemon solves too).
//
// The objective flags tune the composable cost model: -outline adds a
// fixed-outline penalty (the output reports whether the bounding box
// fits the outline, or by how much and at what penalty it violates
// it), -thermal adds thermal mismatch over symmetry pairs, -prox
// pulls proximity groups together, and -wire/-area reweight the
// default terms.
//
// # Wire format
//
// -json FILE (or "-" for stdin) reads a wire Problem or Request
// instead of -bench; -json-out FILE (or "-" for stdout) writes the
// wire Result; -json-req FILE emits the assembled Request itself
// (canonically encoded, without solving), so
//
//	analogplace -bench miller -method seqpair -json-req - | curl -s \
//	  -X POST --data-binary @- 'localhost:8080/v1/place?wait=1'
//
// and the local `analogplace -bench miller -method seqpair -json-out -`
// produce the same placement.
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

	"repro/internal/geom"
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
	method := fs.String("method", "hbstar", "placement method: a placer-registry algorithm (see -algorithms) or portfolio")
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
	wireWeight := fs.Float64("wire", 0, "HPWL weight (0 = default 1)")
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

	objectiveSet := set["outline"] || set["outline-weight"] || set["thermal"] ||
		set["thermal-sigma"] || set["prox"] || set["wire"] || set["area"]
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

	return runSolve(solveArgs{
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
		objectiveSet: objectiveSet,
		bench:        *bench,
		verbose:      *verbose, svgPath: *svgPath,
	}, stdout, stderr)
}

// printAlgorithms lists the registry: one row per engine plus the
// portfolio meta-method, and under an engine that ignores the
// schedule, caps the problem size or refuses objective terms, a line
// saying so.
func printAlgorithms(w io.Writer) {
	const row = "%-16s %-13s %-10s %-10s %-8s %s\n"
	fmt.Fprintf(w, row, "ALGORITHM", "KIND", "PORTFOLIO", "SYMMETRIC", "OVERLAP", "DESCRIPTION")
	mark := func(b bool, s string) string {
		if b {
			return s
		}
		return "-"
	}
	for _, v := range service.Algorithms() {
		fmt.Fprintf(w, row, v.Name, v.Kind, mark(v.Portfolio, "yes"), mark(v.Symmetric, "yes"), mark(v.MayOverlap, "may"), v.Description)
		var limits []string
		if v.IgnoresSchedule {
			limits = append(limits, "ignores seed, workers and schedule")
		}
		if v.MaxModules > 0 {
			limits = append(limits, fmt.Sprintf("at most %d modules", v.MaxModules))
		}
		if len(v.Refuses) > 0 {
			limits = append(limits, "refuses the "+strings.Join(v.Refuses, ", ")+" terms")
		}
		if len(limits) > 0 {
			fmt.Fprintf(w, "%-16s %s\n", "", strings.Join(limits, "; "))
		}
	}
}

// solveArgs carries the flag state into runSolve.
type solveArgs struct {
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

// runSolve is the CLI's one solve path: assemble a wire.Request from a
// JSON file or a benchmark, solve it through service.Solve, the path
// the placed daemon uses, and report.
func runSolve(a solveArgs, stdout, stderr io.Writer) error {
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
			overlayObjective(&p.Objective, a.objective)
		}
		req = &wire.Request{Problem: *p}
	}
	// A file request solves exactly as the daemon would solve the same
	// bytes — CLI flags only override it when explicitly set. A
	// benchmark run takes the CLI defaults (method hbstar, seed 1, the
	// wire default schedule).
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
	if o := req.Problem.Objective; o.OutlineW > 0 && o.OutlineH > 0 {
		exW, exH := max(0, res.BBoxW-o.OutlineW), max(0, res.BBoxH-o.OutlineH)
		if exW == 0 && exH == 0 {
			fmt.Fprintf(humanOut, "outline %dx%d: bounding box fits\n", o.OutlineW, o.OutlineH)
		} else {
			var penalty float64 // the outline term's weighted cost
			if res.Breakdown != nil {
				penalty = res.Breakdown.Outline
			}
			fmt.Fprintf(humanOut, "outline %dx%d: violated by %dx%d, penalty %.4g\n",
				o.OutlineW, o.OutlineH, exW, exH, penalty)
		}
	}
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

// overlayObjective overlays explicitly-set CLI weights on a
// benchmark-derived objective (zero flag values leave the benchmark's
// defaults alone).
func overlayObjective(dst *wire.Objective, flags wire.Objective) {
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

func writeSVG(path string, pl geom.Placement) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return render.SVG(f, pl, render.Options{})
}
