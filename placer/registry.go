package placer

import (
	"context"
	"fmt"
	"sync"
)

// Info describes a registered placement algorithm.
type Info struct {
	// Name is the registry key — the string WithAlgorithm, the CLI's
	// -method flag and the wire format's options.method all accept.
	Name string
	// Hierarchical marks engines that consume the design hierarchy
	// (synthesizing one when the problem carries none); flat engines
	// work on the id-based module view.
	Hierarchical bool
	// Portfolio marks engines raced by WithPortfolio. Hierarchical
	// engines are never raced even if they claim eligibility: the
	// portfolio compares flat representations like for like.
	Portfolio bool
	// Description is a one-line human-readable summary.
	Description string
}

// Kind returns "hierarchical" or "flat".
func (i Info) Kind() string {
	if i.Hierarchical {
		return "hierarchical"
	}
	return "flat"
}

// PortfolioEligible reports whether WithPortfolio races this engine:
// the one definition of eligibility, shared by the race itself and
// every listing of it.
func (i Info) PortfolioEligible() bool {
	return i.Portfolio && !i.Hierarchical
}

// Engine is one placement algorithm behind the registry. Implementors
// receive a validated, normalized problem and the resolved solver
// options, and must honor ctx at least at annealing stage boundaries.
// A cancelled run returns its best-so-far result with
// Result.Cancelled set, not an error; an engine that has no
// best-so-far, such as the esf/rsf enumeration, returns ctx's error.
// The built-in annealing adapters return through annealedResult, which
// fails a run that completed no stage; an engine registered from
// outside the package gets no such guard and must refuse a zero-stage
// run itself.
type Engine interface {
	Info() Info
	Solve(ctx context.Context, p *Problem, opt EngineOptions) (*Result, error)
}

// Factory builds a fresh Engine per solve. Engines may keep per-run
// state; the registry never reuses one across solves.
type Factory func() Engine

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
	regOrder []string
)

// Register adds an algorithm under its name; the built-in engines
// self-register at init, and external backends register their own the
// same way. The name becomes valid everywhere at once: WithAlgorithm,
// the portfolio set (per Info), analogplace -algorithms/-method and
// the daemon's GET /v1/algorithms all enumerate this registry.
// Register panics on an empty name, nil factory, or duplicate name —
// a registration conflict is a programming error, not a runtime
// condition.
func Register(name string, factory Factory) {
	if name == "" {
		panic("placer: Register with empty algorithm name")
	}
	if factory == nil {
		panic(fmt.Sprintf("placer: Register(%q) with nil factory", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("placer: algorithm %q registered twice", name))
	}
	registry[name] = factory
	regOrder = append(regOrder, name)
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// Known reports whether name is a registered algorithm.
func Known(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// Algorithms lists every registered algorithm's Info, in registration
// order (the built-ins first, in portfolio tie-break order).
func Algorithms() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, registry[name]().Info())
	}
	return out
}

// PortfolioAlgorithms lists the algorithms WithPortfolio races, in
// racing order (which is also the deterministic tie-break order):
// portfolio-eligible, non-hierarchical engines, by registration.
func PortfolioAlgorithms() []string {
	var names []string
	for _, info := range Algorithms() {
		if info.PortfolioEligible() {
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
