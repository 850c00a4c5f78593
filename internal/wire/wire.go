// Package wire defines the canonical, versioned JSON wire format the
// placement service and the CLI speak: a Problem describes one
// placement instance (modules, symmetry groups, nets, proximity
// groups, objective weights, and an optional design hierarchy for the
// hierarchical engines), Options describe how to solve it, and a
// Request bundles the two. Result carries a solved placement back.
// The hierarchy is spelled by constraint.Node's JSON tags (Node
// aliases it through placer.Node): name, kind, devices, pairs,
// selfs, units and children, with kind one of "", "symmetry",
// "common_centroid" and "proximity".
//
// The format is the JSON encoding of the public placer types: their
// JSON tags are the wire spelling, and a wire Problem is a
// placer.Problem behind a version field. This package adds only what
// transport needs — the version, strict decoding and content hashing —
// and delegates validation and normalization to the placer package, so
// the wire format and the public API can never disagree about what a
// well-formed problem is.
//
// The format is strict and canonical. Decoding rejects unknown
// fields, trailing data and semantically invalid problems; decoded
// values are normalized (member lists sorted, defaults made explicit)
// so that Canonical returns one byte representation per semantic
// problem — permuting nets, symmetry pairs or proximity members does
// not change it. Hash is the hex SHA-256 of that canonical encoding
// and is the content address the service's result cache is keyed by.
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/placer"
)

// Version is the current wire format version. Decoders accept
// problems with this version or with the field omitted (0), and
// canonicalization always writes it explicitly.
const Version = 1

// The problem's parts are the placer types themselves: their JSON
// tags are the wire spelling.
type (
	Module    = placer.Module
	SymGroup  = placer.SymGroup
	Objective = placer.Objective
	Node      = placer.Node
	Placed    = placer.Placed
)

// Problem is one placement instance on the wire: the placer problem
// behind an explicit format version. The embedded fields encode
// inline after "version", so the version leads the canonical bytes.
type Problem struct {
	Version int `json:"version"`
	placer.Problem
}

// MethodPortfolio is the one method that exists only on the wire:
// it races the portfolio-eligible flat representations and keeps the
// best feasible placement. Every other method is a placer registry
// algorithm, named by its placer constant.
const MethodPortfolio = "portfolio"

// KnownMethod reports whether name is a method the service can run:
// any algorithm in the placer registry, or the portfolio race. New
// engines registered with placer.Register become valid wire methods
// automatically.
func KnownMethod(name string) bool {
	_, registered := placer.Lookup(name)
	return name == MethodPortfolio || registered
}

// Options select and tune a solver. The zero value means: seqpair,
// one worker, the service's default schedule (150 moves per stage
// over at most 200 stages, stall-stop after 40, cooling 0.95 — see
// Normalize, which writes these explicitly), no deadline.
type Options struct {
	Method        string  `json:"method,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	MovesPerStage int     `json:"moves_per_stage,omitempty"`
	MaxStages     int     `json:"max_stages,omitempty"`
	StallStages   int     `json:"stall_stages,omitempty"`
	Cooling       float64 `json:"cooling,omitempty"`
	InitialTemp   float64 `json:"initial_temp,omitempty"`
	MinTemp       float64 `json:"min_temp,omitempty"`
	// TemperChains enables parallel tempering with that many replica
	// chains on a temperature ladder (0 or 1 disables; tempering takes
	// precedence over Workers). ExchangeEvery is the stage period of
	// replica-exchange sweeps; 0 with chains set degrades to an
	// independent multi-start identical to Workers=chains. Both are
	// omitted from the canonical encoding when zero, so pre-existing
	// request hashes are unchanged.
	TemperChains  int `json:"temper_chains,omitempty"`
	ExchangeEvery int `json:"exchange_every,omitempty"`
	// TimeoutMS bounds the solve wall-clock; an expired deadline
	// cancels the run at the next stage boundary and returns the
	// best-so-far placement flagged as cancelled (esf/rsf have none
	// and return the deadline error).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Request is what POST /v1/place consumes: a problem and how to
// solve it.
type Request struct {
	Problem Problem `json:"problem"`
	Options Options `json:"options"`
}

// Breakdown decomposes a result's cost per objective term: each field
// is that term's weighted contribution (weight × value), so the
// populated fields sum to Result.Cost exactly. Fragments is the
// hierarchical placer's proximity-connectivity penalty. Overlap is the
// residual overlap penalty of the absolute-coordinate baseline, which
// is no longer registered; it stays so that stored results of past
// absolute solves decode and re-encode to the same bytes.
type Breakdown struct {
	Area      float64 `json:"area,omitempty"`
	HPWL      float64 `json:"hpwl,omitempty"`
	Outline   float64 `json:"outline,omitempty"`
	Proximity float64 `json:"proximity,omitempty"`
	Thermal   float64 `json:"thermal,omitempty"`
	Overlap   float64 `json:"overlap,omitempty"`
	Fragments float64 `json:"fragments,omitempty"`
}

// Result is a solved placement on the wire.
type Result struct {
	Version    int        `json:"version"`
	Name       string     `json:"name,omitempty"`
	Method     string     `json:"method"`
	Cost       float64    `json:"cost"`
	Breakdown  *Breakdown `json:"breakdown,omitempty"`
	BBoxW      int        `json:"bbox_w"`
	BBoxH      int        `json:"bbox_h"`
	AreaUsage  float64    `json:"area_usage"`
	Legal      bool       `json:"legal"`
	Violations []string   `json:"violations,omitempty"`
	Cancelled  bool       `json:"cancelled,omitempty"`
	Stages     int        `json:"stages"`
	Moves      int        `json:"moves"`
	RuntimeMS  int64      `json:"runtime_ms"`
	Placement  []Placed   `json:"placement"`
	// Trace is the solve's flight recording (see Trace), present only
	// when the solve ran with tracing enabled.
	Trace *Trace `json:"trace,omitempty"`
	// EngineTraces holds every portfolio racer's recording — winner
	// included, in racing order, each bounded to its newest events (see
	// placer.MaxEngineTraceEvents) — so losing representations stay
	// inspectable. Absent outside portfolio mode.
	EngineTraces []*Trace `json:"engine_traces,omitempty"`
}

// Clone returns a deep copy of the result: no slice or pointer of the
// copy aliases the receiver, and nil slices stay nil, so the copy
// encodes to the receiver's bytes. A field added to Result (or to the
// types it points into) must be copied here too; TestResultCloneIsDeep
// fails until it is.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	c := *r
	if r.Breakdown != nil {
		b := *r.Breakdown
		c.Breakdown = &b
	}
	c.Violations = slices.Clone(r.Violations)
	c.Placement = slices.Clone(r.Placement)
	c.Trace = r.Trace.Clone()
	if r.EngineTraces != nil {
		c.EngineTraces = make([]*Trace, len(r.EngineTraces))
		for i, t := range r.EngineTraces {
			c.EngineTraces[i] = t.Clone()
		}
	}
	return &c
}

// Geometry ceilings, shared with the placer package: module
// dimensions and counts are bounded so packing coordinate sums and
// area products stay far inside int64 on untrusted input
// (MaxModules·MaxDim² ≤ 2⁵⁷).
const (
	MaxModules = placer.MaxModules
	MaxDim     = placer.MaxDim
)

// Validate checks the problem's internal consistency without
// modifying it: the wire version must be supported, and the decoded
// problem must be semantically valid under the placer package's
// canonical rules. Decode runs it automatically; encoders building
// problems programmatically should run it before Canonical.
func (p *Problem) Validate() error {
	if p.Version != 0 && p.Version != Version {
		return fmt.Errorf("wire: unsupported version %d (this build speaks %d)", p.Version, Version)
	}
	return p.Problem.Validate()
}

// Normalize rewrites the problem in place into its canonical form:
// version explicit, then the placer package's canonical form (pair
// endpoints ordered, member lists sorted, group and net lists sorted
// lexicographically, empty slices nil). Two semantically identical
// problems normalize to equal values, which is what makes Hash a
// content address. Decode normalizes automatically.
func (p *Problem) Normalize() {
	if p.Version == 0 {
		// Only the omitted version is made explicit; an unsupported
		// one is left for Validate to reject, not silently rewritten.
		p.Version = Version
	}
	p.Problem.Normalize()
}

// Normalize canonicalizes the options: the service's solver defaults
// are written explicitly, so `{}` and the spelled-out equivalent
// (seqpair, one worker, 150 moves/stage over ≤200 stages, stall 40,
// cooling 0.95) hash to the same content address and share cache
// entries. InitialTemp and MinTemp stay 0 — their default is
// per-problem calibration, which "0" is the canonical spelling of.
func (o *Options) Normalize() {
	if o.Method == "" {
		o.Method = placer.SeqPair
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.MovesPerStage == 0 {
		o.MovesPerStage = DefaultMovesPerStage
	}
	if o.MaxStages == 0 {
		o.MaxStages = DefaultMaxStages
	}
	if o.StallStages == 0 {
		o.StallStages = DefaultStallStages
	}
	if o.Cooling == 0 {
		o.Cooling = DefaultCooling
	}
}

// Default annealing schedule — the placer package's defaults,
// re-exported as the wire spelling shared by Normalize (which makes
// them explicit in the canonical encoding), Request.Validate (which
// sizes the stage-work ceiling with them) and the CLI.
const (
	DefaultMovesPerStage = placer.DefaultMovesPerStage
	DefaultMaxStages     = placer.DefaultMaxStages
	DefaultStallStages   = placer.DefaultStallStages
	DefaultCooling       = placer.DefaultCooling
)

// Resource ceilings on solver options: the wire format faces
// untrusted clients, so one request must not be able to conscript
// unbounded goroutines or camp on a pool worker forever.
const (
	MaxWorkers       = 64
	MaxMovesPerStage = 1_000_000
	MaxStagesBound   = 1_000_000
)

// Validate checks the options. An unknown method fails with the
// placer registry's shared unknown-algorithm error, so the daemon,
// the CLI and placer.Solve reject it identically.
func (o *Options) Validate() error {
	if o.Method != "" && !KnownMethod(o.Method) {
		return placer.ErrUnknownAlgorithm(o.Method)
	}
	if o.Workers < 0 || o.MovesPerStage < 0 || o.MaxStages < 0 || o.StallStages < 0 || o.TimeoutMS < 0 ||
		o.TemperChains < 0 || o.ExchangeEvery < 0 {
		return fmt.Errorf("wire: negative solver option")
	}
	if o.Workers > MaxWorkers {
		return fmt.Errorf("wire: workers %d over the limit of %d", o.Workers, MaxWorkers)
	}
	if o.TemperChains > MaxWorkers {
		// Every chain is a live goroutine, so chains share the worker
		// ceiling.
		return fmt.Errorf("wire: temper_chains %d over the limit of %d", o.TemperChains, MaxWorkers)
	}
	if o.ExchangeEvery > MaxStagesBound {
		return fmt.Errorf("wire: exchange_every %d over the limit of %d", o.ExchangeEvery, MaxStagesBound)
	}
	if o.MovesPerStage > MaxMovesPerStage {
		return fmt.Errorf("wire: moves_per_stage %d over the limit of %d", o.MovesPerStage, MaxMovesPerStage)
	}
	if o.MaxStages > MaxStagesBound || o.StallStages > MaxStagesBound {
		return fmt.Errorf("wire: stage bound over the limit of %d", MaxStagesBound)
	}
	if o.Cooling < 0 || o.Cooling >= 1 {
		if o.Cooling != 0 {
			return fmt.Errorf("wire: cooling %v outside (0,1)", o.Cooling)
		}
	}
	for _, v := range []float64{o.Cooling, o.InitialTemp, o.MinTemp} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wire: solver option %v is not a finite non-negative number", v)
		}
	}
	if o.InitialTemp > 0 && o.MinTemp >= o.InitialTemp {
		// The schedule would run zero stages and hand back the random
		// initial placement as a "solved" result.
		return fmt.Errorf("wire: min_temp %v not below initial_temp %v", o.MinTemp, o.InitialTemp)
	}
	return nil
}

// Schedule maps the options onto the placer schedule.
func (o *Options) Schedule() placer.Schedule {
	return placer.Schedule{
		MovesPerStage: o.MovesPerStage,
		MaxStages:     o.MaxStages,
		StallStages:   o.StallStages,
		Cooling:       o.Cooling,
		InitialTemp:   o.InitialTemp,
		MinTemp:       o.MinTemp,
	}
}

// Canonical returns the canonical encoding of the problem: the
// normalized form marshalled with a fixed field order and no
// extraneous whitespace. The receiver is not modified.
func (p *Problem) Canonical() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := FromCanon(&p.Problem)
	c.Normalize()
	return json.Marshal(c)
}

// Hash returns the hex SHA-256 of the problem's canonical encoding —
// its content address.
func (p *Problem) Hash() (string, error) {
	b, err := p.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// MaxStageWork bounds modules × moves-per-stage for one request.
// Cancellation (DELETE, deadlines, shutdown) lands at temperature
// stage boundaries — the hot loop deliberately carries no per-move
// checks — so a single stage must stay small enough that a stage
// boundary is never hours away.
const MaxStageWork = 100_000_000

// Validate checks problem and options, including the joint
// stage-work ceiling that neither can check alone.
func (r *Request) Validate() error {
	if err := r.Problem.Validate(); err != nil {
		return err
	}
	if err := r.Options.Validate(); err != nil {
		return err
	}
	if err := placer.CheckProblem(r.Options.Method, &r.Problem.Problem); err != nil {
		return err
	}
	moves := r.Options.MovesPerStage
	if moves == 0 {
		moves = DefaultMovesPerStage // what Normalize will make it
	}
	// Tempering chains run their stages concurrently, so a stage's
	// work scales with the chain count too.
	chains := r.Options.TemperChains
	if chains < 1 {
		chains = 1
	}
	if work := int64(moves) * int64(len(r.Problem.Modules)) * int64(chains); work > MaxStageWork {
		return fmt.Errorf("wire: moves_per_stage × modules × chains = %d over the limit of %d", work, MaxStageWork)
	}
	return nil
}

// Canonical returns the canonical encoding of the request. The
// deadline is excluded: a completed result does not depend on
// timeout_ms (cancelled runs are never cached), so requests differing
// only in deadline share a content address.
func (r *Request) Canonical() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	c := Request{Problem: *FromCanon(&r.Problem.Problem), Options: r.Options}
	c.Problem.Normalize()
	c.Options.Normalize()
	c.Options.TimeoutMS = 0
	return json.Marshal(c)
}

// Hash returns the hex SHA-256 of the request's canonical encoding.
// Identical problems solved with identical options share it; the
// service's result cache is keyed by it.
func (r *Request) Hash() (string, error) {
	b, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// HashNormalized is Hash for a request already in normalized form
// (DecodeRequest output, or after Problem.Normalize plus
// Options.Normalize): it skips Hash's defensive deep clone and
// re-normalization, which dominate the service's cache-hit path. On
// a request that is not actually normalized it returns the hash of
// that spelling — at worst a cache miss, never a wrong result.
func (r *Request) HashNormalized() (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	return r.hashNormalized()
}

// hashNormalized is HashNormalized for a request already validated.
func (r *Request) hashNormalized() (string, error) {
	c := Request{Problem: r.Problem, Options: r.Options}
	c.Options.TimeoutMS = 0 // deadlines are excluded from the content address
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// decodeStrict unmarshals JSON rejecting unknown fields and trailing
// data.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("wire: %v", err)
	}
	// Token, unlike More, also sees a stray closing delimiter: a
	// well-formed value followed by `}` or `]` is trailing data too.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("wire: trailing data after JSON value")
	}
	return nil
}

// DecodeProblem strictly parses, validates and normalizes a problem.
func DecodeProblem(data []byte) (*Problem, error) {
	var p Problem
	if err := decodeStrict(data, &p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Normalize()
	return &p, nil
}

// DecodeRequest strictly parses, validates and normalizes a request.
func DecodeRequest(data []byte) (*Request, error) {
	var r Request
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	r.Problem.Normalize()
	r.Options.Normalize()
	return &r, nil
}

// DecodeRequestHash is DecodeRequest followed by HashNormalized, with
// the request validated once instead of twice: it returns the decoded
// request and the content hash HashNormalized would.
func DecodeRequestHash(data []byte) (*Request, string, error) {
	r, err := DecodeRequest(data)
	if err != nil {
		return nil, "", err
	}
	hash, err := r.hashNormalized()
	if err != nil {
		return nil, "", err
	}
	return r, hash, nil
}
