// Package fault is a failpoint registry for chaos-testing the
// placement daemon: named sites in the scheduler, the solve path and
// the HTTP surface ask Point whether an injected fault should fire
// here, and chaos tests (or an operator via PLACED_FAULTPOINTS) arm
// the sites with per-point probabilities. The registry is built for
// production binaries to carry the call sites at zero cost: while no
// point is armed, Point is a single atomic load and a return.
//
// Activation is deterministic: every point draws from its own RNG
// seeded from the global seed and the point's name, so a chaos run
// with a fixed seed fires the same faults at the same call sequence
// regardless of how goroutines interleave between points (the draws
// of one point are serialized under its own lock). Each point counts
// its fires, so tests can assert a storm actually exercised a site.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// armed is the fast-path gate: false whenever no point is enabled, so
// disabled builds pay one atomic load per call site and nothing else.
var armed atomic.Bool

var (
	mu     sync.Mutex
	seed   int64 = 1
	points       = map[string]*point{}
)

// point is one armed failpoint.
type point struct {
	sync.Mutex
	prob  float64
	rng   *rand.Rand
	fires int64
	evals int64
}

// pointSeed derives a per-point seed from the global seed and the
// point name, so arming points in a different order cannot shift any
// point's draw sequence.
func pointSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ int64(h.Sum64())
}

// Enable arms the named failpoint: Point(name) fires with the given
// probability (1 fires every call, 0 never). Enabling resets the
// point's RNG and counters.
func Enable(name string, prob float64) {
	mu.Lock()
	defer mu.Unlock()
	points[name] = &point{prob: prob, rng: rand.New(rand.NewSource(pointSeed(seed, name)))}
	armed.Store(true)
}

// Disable disarms one failpoint.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, name)
	armed.Store(len(points) > 0)
}

// Reset disarms every failpoint and restores the default seed,
// returning the registry to the zero-cost state.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
	seed = 1
	armed.Store(false)
}

// SetSeed fixes the global activation seed. It only affects points
// enabled afterwards; call it before Enable for a deterministic storm.
func SetSeed(s int64) {
	mu.Lock()
	defer mu.Unlock()
	seed = s
}

// Point reports whether the named failpoint fires at this call. While
// nothing is armed it is one atomic load; sites guard their injected
// panic/hang/error behind it:
//
//	if fault.Point("scheduler/worker-panic") {
//		panic("fault: injected worker panic")
//	}
func Point(name string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return false
	}
	p.Lock()
	defer p.Unlock()
	p.evals++
	if p.prob < 1 && p.rng.Float64() >= p.prob {
		return false
	}
	p.fires++
	return true
}

// Count returns how many times the named point has fired since it was
// enabled (0 for a disarmed point).
func Count(name string) int64 {
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return 0
	}
	p.Lock()
	defer p.Unlock()
	return p.fires
}

// Evals returns how many times the named point has been evaluated
// since it was enabled, fired or not.
func Evals(name string) int64 {
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return 0
	}
	p.Lock()
	defer p.Unlock()
	return p.evals
}

// EnvVar and EnvSeedVar are the environment knobs EnableFromEnv
// consumes: a comma-separated name=probability list, and the global
// activation seed.
const (
	EnvVar     = "PLACED_FAULTPOINTS"
	EnvSeedVar = "PLACED_FAULT_SEED"
)

// EnableFromEnv arms failpoints from PLACED_FAULTPOINTS
// ("scheduler/worker-panic=0.05,solve/slow=0.1") with the seed from
// PLACED_FAULT_SEED, reporting what it armed. An empty variable arms
// nothing; a malformed entry is an error and nothing is armed.
func EnableFromEnv() ([]string, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil, nil
	}
	if sv := os.Getenv(EnvSeedVar); sv != "" {
		s, err := strconv.ParseInt(sv, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: %s: %v", EnvSeedVar, err)
		}
		SetSeed(s)
	}
	type entry struct {
		name string
		prob float64
	}
	var parsed []entry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, probStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %s entry %q is not name=probability", EnvVar, part)
		}
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("fault: %s entry %q: probability must be in [0,1]", EnvVar, part)
		}
		parsed = append(parsed, entry{strings.TrimSpace(name), prob})
	}
	names := make([]string, 0, len(parsed))
	for _, e := range parsed {
		Enable(e.name, e.prob)
		names = append(names, e.name)
	}
	return names, nil
}
