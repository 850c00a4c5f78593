package repro

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/placer"
)

// ---------------------------------------------------------------------------
// PR 8 — observability overhead: the flight recorder and span tracer
// must be free when off and cheap when on.

// obsOverheadSchedule is the fixed-budget schedule the overhead
// benchmark anneals under: a pinned move and stage budget with no
// temperature floor or stall exit in range, so every iteration does
// bit-identical work and ns/op differences are instrumentation cost,
// not schedule drift.
func obsOverheadSchedule() placer.Schedule {
	return placer.Schedule{MovesPerStage: 100, MaxStages: 30, StallStages: 30, Cooling: 0.9}
}

// benchObsSolve runs the pinned n-module seq-pair anneal once per
// iteration with the given extra options appended.
func benchObsSolve(b *testing.B, n int, opts ...placer.Option) {
	b.Helper()
	p, err := placer.Synthetic(placer.SyntheticSpec{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	all := append([]placer.Option{
		placer.WithAlgorithm(placer.SeqPair),
		placer.WithSeed(7),
		placer.WithSchedule(obsOverheadSchedule()),
	}, opts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placer.Solve(context.Background(), p, all...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealObsOverhead measures the n=1000 seq-pair anneal under
// the three observability postures: off (no tracing — the baseline the
// benchtrend gate pins against BENCH_PR7.json within 1%), ring (flight
// recorder attached), and export (flight recorder plus armed span
// tracer). The n=10000 cases feed the PERFORMANCE.md overhead table
// and only run when SCALE_BENCH_LARGE is set.
func BenchmarkAnnealObsOverhead(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		if n >= 10000 && os.Getenv("SCALE_BENCH_LARGE") == "" {
			continue
		}
		b.Run(fmt.Sprintf("off/n=%d", n), func(b *testing.B) {
			benchObsSolve(b, n)
		})
		b.Run(fmt.Sprintf("ring/n=%d", n), func(b *testing.B) {
			benchObsSolve(b, n, placer.WithTrace(0))
		})
		b.Run(fmt.Sprintf("export/n=%d", n), func(b *testing.B) {
			obs.Enable()
			defer func() {
				obs.Disable()
				obs.ResetSpans()
			}()
			benchObsSolve(b, n, placer.WithTrace(0))
		})
	}
}

// TestObsRingOverheadBounded is an in-process guard behind the CI
// benchtrend gate: a paired off-vs-ring run of the n=200 anneal must
// not show the flight recorder costing more than 15% — way above its
// real cost (~0.1%, see PERFORMANCE.md) but tight enough to catch a
// recording hook leaking into the move loop's hot path. Skipped in
// -short runs. It is timing-based, so it runs the off and ring solves
// in adjacent pairs, alternating which goes first, and bounds the
// median of the pairs' ring/off ratios: load from other processes
// that drifts over the run lands on both halves of a pair alike, and
// a stall that hits one solve moves one ratio, not the median. A hook
// in the hot path slows every ring solve, so it moves the median.
func TestObsRingOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based guard; skipped with -short")
	}
	p, err := placer.Synthetic(placer.SyntheticSpec{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(opts ...placer.Option) time.Duration {
		all := append([]placer.Option{
			placer.WithAlgorithm(placer.SeqPair),
			placer.WithSeed(7),
			placer.WithSchedule(obsOverheadSchedule()),
		}, opts...)
		start := time.Now()
		if _, err := placer.Solve(context.Background(), p, all...); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	solve() // warm up caches and the allocator before timing
	const pairs = 11
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, ring time.Duration
		if i%2 == 0 {
			off = solve()
			ring = solve(placer.WithTrace(0))
		} else {
			ring = solve(placer.WithTrace(0))
			off = solve()
		}
		ratios[i] = float64(ring) / float64(off)
	}
	slices.Sort(ratios)
	if median := ratios[pairs/2]; median > 1.15 {
		t.Fatalf("flight recorder overhead out of bounds: median ring/off ratio %.3f (>1.15), sorted ratios %.3f", median, ratios)
	}
}
