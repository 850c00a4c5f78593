package placer

import (
	"context"
	"fmt"
	"sync"
)

// Info describes a registered placement algorithm: what it is and
// what it honours. Register stores it once, and the portfolio race,
// CheckProblem, the daemon's pressure mode and both listings (it is
// the JSON of GET /v1/algorithms) all read it from there. A zero
// capability field claims nothing: the engine honours seed, workers,
// schedule and every objective term, takes any problem size and
// promises nothing about symmetry. Every engine keeps its placements
// overlap-free.
type Info struct {
	// Name is the registry key — the string WithAlgorithm, the CLI's
	// -method flag and the wire format's options.method all accept.
	Name string `json:"name"`
	// Kind is "flat" (Register writes it for an empty Kind) or
	// "hierarchical": hierarchical engines consume the design
	// hierarchy (synthesizing one when the problem carries none),
	// flat engines work on the id-based module view.
	Kind string `json:"kind"`
	// Portfolio marks engines raced by WithPortfolio. Register clears
	// it for any engine that is not flat: the portfolio compares flat
	// representations like for like.
	Portfolio bool `json:"portfolio"`
	// Description is a one-line human-readable summary.
	Description string `json:"description,omitempty"`
	// IgnoresSchedule marks an engine whose result does not depend on
	// seed, workers or schedule: queue pressure leaves it alone.
	IgnoresSchedule bool `json:"ignores_schedule,omitempty"`
	// Refuses lists the optional objective terms ("outline",
	// "proximity", "thermal") the engine cannot honour; CheckProblem
	// rejects a problem whose objective sets one.
	Refuses []string `json:"refuses,omitempty"`
	// MaxModules is the largest problem the engine accepts (0: no
	// ceiling beyond the problem's own MaxModules).
	MaxModules int `json:"max_modules,omitempty"`
	// Symmetric marks an engine that meets every device-level symmetry
	// group by construction.
	Symmetric bool `json:"symmetric,omitempty"`
}

// Engine is one placement algorithm behind the registry. Implementors
// receive a validated, normalized problem that CheckProblem accepted
// for them, and the resolved solver options, and must honor ctx at
// least at annealing stage boundaries. A cancelled run returns its
// best-so-far result with Result.Cancelled set, not an error; an
// engine that has no best-so-far, such as the esf/rsf enumeration,
// returns ctx's error. The built-in annealing adapters return through
// annealedResult, which fails a run that completed no stage; an engine
// registered from outside the package gets no such guard and must
// refuse a zero-stage run itself.
type Engine interface {
	Solve(ctx context.Context, p *Problem, opt EngineOptions) (*Result, error)
}

// Factory builds a fresh Engine per solve. Engines may keep per-run
// state; the registry never reuses one across solves.
type Factory func() Engine

type registration struct {
	info    Info
	factory Factory
}

var (
	regMu    sync.RWMutex
	registry = map[string]registration{}
	regOrder []string
)

// Register adds an algorithm under info.Name; the built-in engines
// self-register at init, and external backends register their own the
// same way. The name becomes valid everywhere at once: WithAlgorithm,
// the portfolio set (per info), analogplace -algorithms/-method and
// the daemon's GET /v1/algorithms all enumerate this registry.
// Register panics on an empty name, an unknown refused term, a nil
// factory, or a duplicate name — a registration conflict is a
// programming error, not a runtime condition.
func Register(info Info, factory Factory) {
	name := info.Name
	if name == "" {
		panic("placer: Register with empty algorithm name")
	}
	if factory == nil {
		panic(fmt.Sprintf("placer: Register(%q) with nil factory", name))
	}
	if info.Kind == "" {
		info.Kind = "flat"
	}
	info.Portfolio = info.Portfolio && info.Kind == "flat"
	for _, term := range info.Refuses {
		if _, ok := optionalTerms[term]; !ok {
			panic(fmt.Sprintf("placer: Register(%q) refuses unknown objective term %q", name, term))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("placer: algorithm %q registered twice", name))
	}
	registry[name] = registration{info, factory}
	regOrder = append(regOrder, name)
}

func lookup(name string) (registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Lookup returns the Info registered under name, and whether name is
// a registered algorithm.
func Lookup(name string) (Info, bool) {
	r, ok := lookup(name)
	return r.info, ok
}

// Algorithms lists every registered algorithm's Info, in registration
// order (the built-ins first, in portfolio tie-break order).
func Algorithms() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, registry[name].info)
	}
	return out
}

// PortfolioAlgorithms lists the algorithms WithPortfolio races, in
// racing order (which is also the deterministic tie-break order):
// portfolio-eligible engines, by registration.
func PortfolioAlgorithms() []string {
	var names []string
	for _, info := range Algorithms() {
		if info.Portfolio {
			names = append(names, info.Name)
		}
	}
	return names
}

// ErrUnknownAlgorithm makes the unknown-algorithm failure one shared
// message across every front door — placer.Solve, the wire format's
// option validation (and therefore the daemon's 400s) and the CLI —
// so clients see the same error however they arrive.
func ErrUnknownAlgorithm(name string) error {
	return fmt.Errorf("placer: unknown algorithm %q (analogplace -algorithms or GET /v1/algorithms list the registry)", name)
}
