package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/placer"
)

// loadClients is the closed-loop client count, one per core of the
// two-core machines the benchmark is sized for. It is fixed rather
// than read from the machine so every machine runs the same workload.
const loadClients = 2

// Workload sizes.
const (
	// serve-hit: a pool of flat instances, n log-spaced over
	// [hitMinN, hitMaxN], smaller than the daemon's result cache.
	hitPool, hitMinN, hitMaxN = 32, 30, 1000
	hitMoves, hitStages       = 30, 12
	// solve-flat: distinct flat n=flatN instances on a fixed schedule.
	// flatRateCap bounds how many solves per second the instances
	// generated in set-up can feed before a window runs dry.
	flatN                 = 1000
	flatMoves, flatStages = 100, 30
	flatRateCap           = 12
	// analog-mixed: symmetric instances, n in [symMinN, symMaxN] with
	// symDensity of the modules in pairs; one request in missEvery is a
	// new instance, the rest draw from a pre-solved pool of symPool.
	symPool, symMinN, symMaxN = 64, 16, 24
	symDensity                = 0.5
	symMoves, symStages       = 50, 20
	analogRate                = 30.0
	missEvery                 = 5
)

// workload is one traffic mix against a fresh embedded daemon.
type workload struct {
	name      string
	fileStore bool
	// setup generates the workload's instances and pre-solves its hit
	// set on b's daemon.
	setup func(b *bench) error
	// window runs one timed load window.
	window func(b *bench, seconds float64) *window
}

var workloads = map[string]*workload{
	"serve-hit": {
		name: "serve-hit",
		setup: func(b *bench) error {
			rng := rand.New(rand.NewSource(b.seed))
			for i := 0; i < hitPool; i++ {
				n := int(math.Round(hitMinN * math.Pow(float64(hitMaxN)/hitMinN, float64(i)/(hitPool-1))))
				s := rng.Int63()
				inst, err := newInstance(placer.SyntheticSpec{N: n, Seed: s}, fixedSchedule(s, hitMoves, hitStages))
				if err != nil {
					return err
				}
				b.pool = append(b.pool, inst)
			}
			return b.presolvePool()
		},
		window: func(b *bench, seconds float64) *window {
			return closedLoop(b, loadClients, seconds, func(rng *rand.Rand) (*instance, bool, bool) {
				return b.pool[rng.Intn(len(b.pool))], true, true
			})
		},
	},
	"solve-flat": {
		name: "solve-flat",
		setup: func(b *bench) error {
			rng := rand.New(rand.NewSource(b.seed))
			for k := 0; k < int(math.Ceil(flatRateCap*b.seconds)); k++ {
				s := rng.Int63()
				inst, err := newInstance(placer.SyntheticSpec{N: flatN, Seed: s}, fixedSchedule(s, flatMoves, flatStages))
				if err != nil {
					return err
				}
				b.fresh = append(b.fresh, inst)
			}
			return nil
		},
		window: func(b *bench, seconds float64) *window {
			return closedLoop(b, loadClients, seconds, func(*rand.Rand) (*instance, bool, bool) {
				inst, ok := b.takeFresh()
				return inst, false, ok
			})
		},
	},
	"analog-mixed": {
		name:      "analog-mixed",
		fileStore: true,
		setup: func(b *bench) error {
			rng := rand.New(rand.NewSource(b.seed))
			sym := func(k int) (*instance, error) {
				s := rng.Int63()
				n := symMinN + k%(symMaxN-symMinN+1)
				return newInstance(placer.SyntheticSpec{N: n, Seed: s, SymmetryDensity: symDensity}, fixedSchedule(s, symMoves, symStages))
			}
			for i := 0; i < symPool; i++ {
				inst, err := sym(i)
				if err != nil {
					return err
				}
				b.pool = append(b.pool, inst)
			}
			// Two spare misses: a traced run splits the window in two,
			// and each half rounds its share up.
			for k := 0; k < int(math.Ceil(analogRate*b.seconds/missEvery))+2; k++ {
				inst, err := sym(k)
				if err != nil {
					return err
				}
				b.fresh = append(b.fresh, inst)
			}
			return b.presolvePool()
		},
		window: func(b *bench, seconds float64) *window {
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(b.windows)))
			total := int(math.Round(analogRate * seconds))
			plan := make([]planned, total)
			missAt := 0
			for i := range plan {
				if i%missEvery == 0 {
					missAt = i + rng.Intn(missEvery)
				}
				p := &plan[i]
				p.at = time.Duration(float64(i) / analogRate * float64(time.Second))
				if i == missAt {
					p.inst, _ = b.takeFresh()
				} else {
					p.inst, p.hit = b.pool[rng.Intn(len(b.pool))], true
				}
			}
			return openLoop(b, plan)
		},
	},
}

// bench is one set-up of a workload: its daemon and instances.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	tr      *tracer
	d       *daemon
	// pool is the pre-solved hit set; fresh are instances no request
	// has sent yet, handed out in order.
	pool       []*instance
	fresh      []*instance
	mu         sync.Mutex
	freshUsed  int
	poolSolves []sample
	windows    int
	reqs       atomic.Int64
}

// newBench starts the workload's daemon and runs its set-up.
func newBench(w *workload, seed int64, seconds float64, tr *tracer, workDir string) (*bench, error) {
	b := &bench{w: w, seed: seed, seconds: seconds, tr: tr}
	dir := ""
	if w.fileStore {
		var err error
		if dir, err = os.MkdirTemp(workDir, "store-"); err != nil {
			return nil, fmt.Errorf("file store: %w", err)
		}
	}
	d, err := startDaemon(tr, dir)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	b.d = d
	if err := w.setup(b); err != nil {
		b.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return b, nil
}

func (b *bench) close() { b.d.close() }

func (b *bench) nextReq() int64 { return b.reqs.Add(1) }

// takeFresh hands out the next unsent instance.
func (b *bench) takeFresh() (*instance, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freshUsed == len(b.fresh) {
		return nil, false
	}
	b.freshUsed++
	return b.fresh[b.freshUsed-1], true
}

func (b *bench) presolvePool() error {
	var err error
	b.poolSolves, err = presolve(b, b.pool)
	return err
}

// hitProbes asks again for every instance the window solved; each
// must now be a cache hit repeating the solve's result byte for byte.
// It measures hit latency on a workload whose window sends no hits.
func hitProbes(b *bench, w *window) []sample {
	var solved []*instance
	for i, r := range w.records {
		if !r.hit && w.samples[i].ok {
			solved = append(solved, r.inst)
		}
	}
	// Three rounds, so the hit figures are medians over rounds (see
	// summarize): one round is too few requests for a steady tail.
	var samples []sample
	for round := 0; round < 3; round++ {
		for _, s := range sendEach(b, solved, true).samples {
			s.part = round
			samples = append(samples, s)
		}
	}
	return samples
}

// workDirFor is where a run keeps its scratch files and spans: inside
// the checkout's build directory.
func workDirFor() (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
