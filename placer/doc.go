// Package placer is the public front door of this repository: analog
// placement with symmetry, proximity and thermal constraints behind
// one canonical [Problem], one [Solve] call, and a self-registration
// algorithm registry shared by every consumer (the analogplace CLI,
// the placed daemon's wire format, and this package's own examples).
//
// # Quickstart
//
// Build a Problem (directly, or from a built-in [Benchmark]) and
// solve it:
//
//	p, _ := placer.Benchmark("miller")
//	res, err := placer.Solve(ctx, p,
//		placer.WithAlgorithm(placer.HBStar),
//		placer.WithSeed(1))
//
// Solve validates the problem, solves a normalized copy (two
// spellings of one semantic problem place identically), and returns a
// [Result] carrying the placement in module order, the per-term cost
// breakdown, constraint violations and annealing statistics. Equal
// seeds give bit-identical results.
//
// # Algorithms and the registry
//
// The built-in engines self-register at init — the flat annealing
// placers (seqpair, bstar, tcg, slicing, absolute and the memetic
// genetic:seqpair and genetic:absolute), the hierarchical hbstar, and
// Section IV's deterministic esf and rsf — and external backends join
// with [Register]. [Algorithms] enumerates the registry; it is the
// single source of truth behind WithAlgorithm, the portfolio set,
// `analogplace -algorithms` and the daemon's GET /v1/algorithms, so
// adding an engine needs no dispatch-switch edits anywhere.
//
// [WithPortfolio] races the portfolio-eligible flat engines
// concurrently and keeps the winner (feasibility first, then cost,
// then racing order — deterministic).
//
// Each engine states once, in its [Info], what it ignores, refuses
// and guarantees; [CheckProblem] enforces the refusals. Every engine
// solves one id-based view of the problem (internal/place's Problem);
// hbstar, esf and rsf solve it under the problem's hierarchy, or one
// synthesized from the flat groups, whose children Solve sorts by
// name.
//
// # Cancellation and streaming
//
// Solve is context-first: ctx cancellation (or [WithDeadline]) stops
// the run at the next annealing stage boundary and returns the best
// placement found so far with Result.Cancelled set. An enumeration
// has no best-so-far: esf and rsf stop within milliseconds and return
// ctx's error. [WithProgress] streams per-stage snapshots from every
// annealing chain while the solve runs.
//
// # Relation to the internal packages
//
// The package is a facade: engines run on internal/place,
// internal/hbstar and internal/shapefn, objectives on internal/cost,
// schedules on internal/anneal. The JSON tags on [Problem] and its
// parts are the wire spelling: internal/wire embeds Problem behind a
// format version and adds strict decoding and content hashing, with no
// conversion layer between the two. [Node], the design hierarchy, is
// internal/constraint's tree type under an alias, so the hierarchy the
// wire decodes is the tree hbstar and shapefn pack, also without
// conversion. internal/service schedules Solve
// calls behind the HTTP daemon. See PERFORMANCE.md's "Public API"
// section for migration notes from the internal packages.
package placer
