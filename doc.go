// Package repro reproduces "Analog Layout Synthesis — Recent Advances
// in Topological Approaches" (Graeb, Balasa, Castro-Lopez, Chang,
// Fernandez, Lin, Strasser; DATE 2009) as a self-contained Go library.
//
// The paper surveys four topological approaches to analog layout
// synthesis; this module implements all four from scratch, along with
// every substrate they rest on:
//
//   - Section II — symmetric-feasible sequence-pairs: internal/seqpair
//     (property (1), the search-space Lemma, and three packers),
//     driven by internal/place. Only the full flat pack, SP.PackInto,
//     runs in O(n log log n) on the van Emde Boas queue of
//     internal/veb. The annealer's flat moves repack with IncPack, a
//     weighted-LCS scan on a sorted staircase that replays its cached
//     journal outside the disturbed steps. Symmetric placements come
//     from PackSymmetric, which solves the constraint graphs by
//     iterated longest path.
//   - Section III — hierarchical placement: internal/hbstar
//     (HB*-trees with contour nodes) over internal/asf (ASF-B*-tree
//     symmetry islands) and internal/bstar, whose contour packs every
//     sub-circuit and hands its profile to the parent as contour
//     nodes, with the constraint model of internal/constraint and
//     automatic hierarchy detection in internal/hier.
//   - Section IV — deterministic placement: internal/shapefn (shape
//     functions, enhanced shape additions, hierarchically bounded
//     enumeration) over internal/bstar enumeration, registered as the
//     esf and rsf engines. Table I and Fig. 8 call shapefn.Place on
//     place.FromBench's flat view under the authored trees of
//     internal/circuits' benchmark generators, because placer.Solve
//     sorts hierarchy children by name and shape-function results
//     depend on that order.
//   - Section V — layout-aware sizing: internal/sizing over the
//     device model (internal/mos), analytic performance evaluation
//     (internal/perf), layout templates (internal/template) and
//     parasitic extraction (internal/extract).
//
// The six registered placement methods (seqpair, bstar, hbstar,
// genetic:seqpair, esf and rsf) run through the placer registry behind
// placer.Solve. internal/place keeps two unregistered baselines, the
// absolute-coordinate and slicing-tree placers, which only the
// Section II ablations in bench_test.go run. internal/core hosts the
// paper-experiment drivers that regenerate each table and figure, and
// the benchmarks in this package (bench_test.go) exercise them.
// cmd/table1, cmd/fig8 and cmd/fig10 regenerate Table I, Fig. 8 and
// Fig. 10 and print the results.
//
// # The optimization hot path
//
// All stochastic placers run on the engines of internal/anneal. The
// annealers take one protocol, anneal.MutableSolution: Perturb
// returning an exact Undo, plus Snapshot/Restore for the best-so-far.
// It mutates one solution and reverts rejected moves, the
// move-and-undo scheme of the B*-tree annealing tradition, so a move
// copies nothing. Serial (anneal.Anneal), multi-start and tempered
// runs advance the same chain type through the same stage body. Only
// the evolutionary phase of the memetic engines clones, through
// anneal.Solution's Neighbor, because a population needs independent
// copies.
//
// # The engine core
//
// Every placer reaches those protocols through one shared kernel,
// internal/engine — the paper's "one problem, interchangeable
// representations" structure made literal. A representation (the
// topology encoding plus its move set) implements
// engine.Representation: Perturb with exact Undo, Pack into
// coordinates, Snapshot/Restore, Clone and Placement; the kernel's
// engine.Solution supplies everything the six hand-rolled *Solution
// structs used to duplicate — ownership of the cost.Model, the
// incremental evaluation wiring (diff-based Update for topological
// repacks, UpdateMoved for representations implementing
// engine.MovedModules, full Eval on restores of direct-coordinate
// state), the model-journal undo bookkeeping, feasible-init retries
// (engine.FeasibleInit / RunFeasible) and result assembly. The
// adapters in internal/place (spRep, btRep, slRep, absRep) and
// internal/hbstar (forestRep) are each the encoding and its moves,
// nothing else.
//
// Cross-engine features land in the kernel once: representations
// implementing engine.Crossover gain the memetic genetic:<repr>
// registry engines (today genetic:seqpair, order crossover over
// sequence-pairs, through anneal.Evolve's CrossoverRate). They are
// off the default path, which stays bit-identical to the pinned
// pre-kernel goldens.
//
// # The composable objective
//
// Every placer optimizes a composite objective built from the Term
// protocol of internal/cost: a Term exposes a full Eval over all
// modules, an incremental Update over the set of moved modules, an
// exact Undo, and a Value read from cached state. A cost.Model
// composes weighted terms over one canonical coordinate cache,
// detects each move's dirty set by diffing repacked coordinates
// against that cache (or takes it explicitly via UpdateMoved from
// placers that know their move), and guarantees that incremental and
// from-scratch evaluation agree bit for bit — integer terms keep
// integer totals, float terms cache per-element values and sum in
// fixed order. Built-in terms: bounding-box area, dirty-net HPWL
// (per-net cached boxes behind a module→nets index), fixed-outline
// penalty (Adya/Markov), proximity grouping, and thermal mismatch
// over symmetry pairs (internal/thermal); placers add their own —
// the absolute placer's incremental pairwise-overlap penalty and the
// hierarchical placer's proximity-fragments count are ~50-line Terms
// rather than cross-placer surgery. Solutions additionally implement
// anneal.MoveReporter, exposing each move's dirty set for
// verification; the property tests in internal/place and
// internal/cost pin incremental-equals-full with tolerance zero.
// place.Problem carries the per-term weights for every engine, flat
// and hierarchical; placer.Objective and cmd/analogplace's
// -outline/-thermal/-prox/-wire/-area flags thread them from the top.
//
// Packing — the annealer's dominant inner operation — is
// allocation-free at steady state through reusable workspaces:
// bstar.Tree.PackInto(*bstar.PackWorkspace) packs with a pooled
// contour spliced in place. That bstar.Contour is the repo's one
// contour: hbstar lays every sub-circuit out on its own (a hierarchy
// node splices its child's profile in, and an ASF island's profile is
// its representative tree's contour, mirrored), and shapefn packs its
// pointer trees and enumerated dense trees on it.
// seqpair.SP.PackInto(*seqpair.PackWorkspace)
// reuses the vEB queue and LCS buffers. The compatibility wrappers
// (Pack()) remain and allocate only the returned slices;
// seqpair.SP.Pack and PackSymmetric additionally cache their solver
// scratch on the SP, which makes packing methods unsafe for concurrent
// use on a single SP — concurrent searches use distinct solutions.
//
// anneal.ParallelAnneal runs parallel multi-start: one independent
// chain per worker (own RNG, own representation, own workspaces) and a
// deterministic best-of reduction. Worker 0 replicates the serial
// chain exactly, so multi-start never returns a worse cost than the
// serial run of the same Options. Placers enable it through
// anneal.Options.Workers and cmd/analogplace's -workers flag. See
// PERFORMANCE.md for measured numbers.
//
// Annealing runs are cooperatively cancellable: anneal.Options.Context
// is checked once per temperature stage (never per move, keeping the
// hot loop clean), and a cancelled run returns the best solution seen
// so far with Stats.Cancelled set. Options.Progress delivers per-stage
// statistics snapshots (best cost, stage, temperature, move counts)
// without perturbing the search — the plumbing the service layer's
// live job progress is built on.
//
// # The service layer
//
// Placement-as-a-service lives in two packages plus a daemon:
//
// internal/wire is the canonical, versioned JSON wire format: a
// Problem carries modules, symmetry groups, nets, proximity groups,
// objective weights and (for the hierarchical engines) the design
// hierarchy; Options select and tune a solver; a Request bundles the
// two. Decoding is strict — unknown fields, trailing bytes and
// semantically invalid problems are rejected — and decoded values are
// normalized so every semantic problem has exactly one canonical
// encoding. Hash (SHA-256 of that encoding) is therefore a content
// address: permuting nets or pair endpoints does not change it. The
// design hierarchy on the wire is constraint.Node itself, the one
// tree type from the decoder to the packers: the hierarchical engines
// (hbstar, esf, rsf) solve the flat engines' place.Problem view under
// it, and the flat placers bind its symmetry nodes through the same
// constraint.Node.SymmetryGroups walker that place.FromBench uses; a
// fuzz harness with a checked-in corpus pins "never panics" and
// "decode→encode→decode is a fixed point".
//
// internal/service schedules wire requests over a bounded worker
// pool. Each job solves under its own context.Context (DELETE and
// timeout_ms cancel at the next stage boundary, keeping the
// best-so-far placement), reports live progress aggregated from
// anneal.Options.Progress across chains and racers, and lands in a
// content-addressed LRU cache keyed by the request hash — identical
// requests are answered without re-solving, and identical in-flight
// requests coalesce onto one job. MethodPortfolio races the seqpair
// and bstar representations on the same problem concurrently and
// keeps the winner under feasibility-first ranking (fewest constraint
// violations, then cost), so a representation that ignores symmetry
// groups cannot "win" a constrained problem on raw cost.
//
// cmd/placed serves the scheduler over HTTP: POST /v1/place (async,
// or synchronous with ?wait=1), GET /v1/algorithms for the registry,
// GET /v1/jobs/{id} for status, progress and result,
// DELETE /v1/jobs/{id} to cancel, /healthz, and Prometheus text
// metrics on /metrics (job states, queue/running gauges, cache
// hit/miss counters, solve-latency histogram). cmd/analogplace speaks
// the same wire format through -json (input) and -json-out (output),
// so a request solves identically through the CLI and the daemon;
// examples/serve walks the whole loop in one process.
//
// # The public API
//
// Package repro/placer is the importable front door over all of the
// above: one canonical placer.Problem (flat view plus optional design
// hierarchy, whose JSON tags are the wire spelling — wire.Problem is
// placer.Problem behind a format version, plus strict decoding and
// content hashing), an Engine interface with
// a self-registration registry (placer.Register) behind which every
// built-in engine lives, and a context-first
// placer.Solve(ctx, problem, opts...) with functional options —
// WithAlgorithm, WithPortfolio, WithWorkers, WithSeed, WithSchedule,
// WithProgress (streaming per-stage snapshots), WithDeadline — that
// returns a Result carrying the placement in module order, the
// per-term cost breakdown and the annealing statistics. The service
// layer, the CLI and every example are thin adapters over this one
// entry point: the registry is the single algorithm namespace
// (analogplace -algorithms and GET /v1/algorithms enumerate it), and
// pin tests hold the CLI, the daemon and the public API bit-identical
// on the Miller and n=1000 benchmarks. Runnable godoc examples on the
// placer package double as compile-checked documentation; see
// PERFORMANCE.md's "Public API" section for migration notes from
// internal/place.
//
// # Fault tolerance
//
// The service layer assumes it will be interrupted and plans for it
// in four layers. internal/fault is a failpoint registry: named
// injection sites (scheduler/worker-panic, solve/slow, solve/error,
// wire/decode-err) compiled into the hot paths but costing one
// atomic load when disarmed, armed via PLACED_FAULTPOINTS with
// deterministic per-point seeding (PLACED_FAULT_SEED) so a chaos run
// replays. Annealing jobs checkpoint their best snapshot into a
// store keyed by the request's content hash: a job killed by
// deadline, cancellation or crash still returns its best-so-far
// placement, and resubmitting the identical request resumes the
// anneal warm from the checkpoint instead of cold from a random
// state (the checkpoint is dropped once a canonical run completes
// and the result cache takes over). Workers are supervised: a panic
// in a solve is caught, the job is requeued at the front and the
// worker restarts under exponential backoff with jitter; a job that
// keeps crashing is quarantined as failed with its captured stack
// rather than poisoning the pool, and per-worker crash counters
// surface on /metrics. Finally the daemon sheds load instead of
// queueing without bound — a full queue answers 429 with a
// Retry-After estimated from observed solve latency, and under
// queue-depth pressure new runs start with a shortened schedule,
// marked "degraded" in the job view and kept out of the result
// cache so a quieter resubmission re-solves at full quality. The
// chaos suite (go test -race -run Chaos ./internal/service/...)
// storms all four failpoints at once through the HTTP surface and
// pins the contract: no wedged scheduler, every accepted job reaches
// a terminal state, and with failpoints disarmed results stay
// bit-identical.
//
// # Scaling past n=1000
//
// The paper's benchmarks stop at tens of modules; the solve path here
// is built to hold up to 10⁴–10⁵. placer.Synthetic generates seeded,
// deterministic instances at that scale (log-uniform module areas, a
// truncated power-law net-degree distribution in the spirit of Rent's
// rule, optional symmetry-pair density), and three mechanisms keep
// them tractable. First, incremental packing: sequence-pair repacks
// re-scan the longest-common-subsequence evaluation only from the
// alpha positions a move disturbed until it re-converges with the
// previous one, and replay the cached scan everywhere else
// (seqpair.IncPack, exact to the bit against a full pack, ~15× per
// move at n=10⁴), and B*-tree repacks replay the unchanged pre-order
// prefix from per-step records (bstar.IncPackWorkspace). Second,
// range-limited moves: above n≈2000 the sequence-pair placer draws
// TimberWolf-style local window moves, so the two positions a
// perturbation disturbs lie close together and their re-scans stay
// short. Third, parallel tempering
// (placer.WithTempering(chains, exchangeEvery)): chains anneal on a
// top-anchored geometric temperature ladder and periodically exchange
// states under the Metropolis rule, which tolerates a 3× faster
// cooling schedule than independent multi-start needs — measured
// time-to-matched-cost ratios are in PERFORMANCE.md, and with
// exchanges disabled the run is bit-identical to
// anneal.ParallelAnneal. cmd/benchtrend enforces the packing and
// time-to-target trajectories in CI against the checked-in
// BENCH_PR7.json baseline.
//
// # Observability
//
// Every layer of a solve can be seen without perturbing it. The
// internal/obs package provides two zero-dependency primitives.
// Hierarchical spans (request → job → engine → anneal → stage) are
// threaded through context and cost one atomic load when disarmed;
// arming them (placed -obs, or obs.Enable) records into a fixed
// in-memory ring served at /debug/spans. The flight recorder
// (obs.Flight) is an allocation-bounded ring of per-stage annealing
// telemetry — temperature, cost, cumulative acceptance counters,
// move-kind histograms, replica-exchange attempts — recorded at
// stage boundaries, never inside the move loop. Recording draws
// nothing from the annealer's RNG and events carry no wall-clock, so
// traced solves are bit-identical to untraced ones and a trace is a
// deterministic function of (problem, seed, schedule): the pin suite
// replays a pre-instrumentation golden against the traced path, and
// placer/trace_test.go pins byte-equal trace JSON across runs.
//
// One event type runs from the recorder to the wire.
// placer.TraceEventFromObs maps an obs.Event to a placer.TraceEvent and
// applies the wire's rules there: ±Inf clamps to ±MaxFloat64, NaN to
// 0, and only exchange events carry a peer. placer.Trace holds the
// JSON tags, wire.Trace is a placer.Trace behind a version field, and
// the SSE stream sends the same mapped events, so result traces, the
// trace endpoint and streamed events share one spelling. TestTracePinned
// pins those bytes against fixtures in placer/testdata.
//
// Tracing is on by default in the daemon (placed -trace-events,
// negative disables; service.Config.TraceEvents). A finished job's
// recording — including failpoint and worker-crash provenance from
// the fault-tolerance layer — is served as versioned, schema-checked
// JSON (wire.Trace.Validate) at GET /v1/jobs/{id}/trace; 409 until
// the job is terminal. The CLI writes the same JSON via analogplace
// -trace-out, and cmd/placetrace renders it as an SVG chart of
// per-rung cost trajectories, acceptance rates and exchange markers.
// placed also logs structured slog lines for every request and job
// transition, exports placed_queue_depth and
// placed_solve_latency_ewma_seconds gauges on /metrics, and mounts
// net/http/pprof under /debug/pprof/ behind -pprof. The disabled
// path is benchmark-enforced: BenchmarkAnnealObsOverhead/off gates
// within 1% of the pre-observability baseline in CI, and the
// measured off/ring/export overhead table is in PERFORMANCE.md.
//
// # Fleet
//
// The daemon scales past one process. internal/store defines the
// persistence seam: a small blob Store contract (Put/Get/Delete/Keys
// with TTLs, one shared contract suite) with in-memory LRU and
// atomic-rename file backends, wrapped by typed adapters — a
// ResultCache keyed by the content-addressed request hash and a
// JobStore of terminal job records. The scheduler talks only to the
// interfaces; placed -store-dir mounts the file backends, so
// instances sharing a directory share solves (one daemon's result is
// the next one's cache hit) and job records survive restarts, with
// -instance prefixing job ids so replicas never collide. POST
// /v1/place:batch decodes and validates many problems as one unit
// and fans them into jobs, with identical items coalescing onto a
// single solve — correct by construction via the same hash. GET
// /v1/jobs/{id} with Accept: text/event-stream streams the solve
// live over SSE: flight-recorder events straight from the ring,
// progress snapshots, a final done event — observation without
// perturbation, determinism pins hold with streams attached.
// Admission is per-tenant: the X-API-Key header names the tenant,
// token buckets (placed -tenant-rate/-tenant-burst) shed over-quota
// submissions with 429 + Retry-After, queued work is dequeued
// fairly across tenants, and /metrics breaks admitted,
// throttled and queue depth out per tenant. cmd/placeload drives the
// whole serve path with a seeded open-loop workload (synthetic
// instances, tenant mix, cold and cache-hit scenarios at 1/8/64
// clients) and emits benchjson, so cmd/benchtrend gates
// service-level throughput in CI against the checked-in
// BENCH_PR9.json exactly as it gates kernel benchmarks; the numbers
// are in PERFORMANCE.md.
package repro
