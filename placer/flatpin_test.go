package placer_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// flatPins pin the exact final cost (math.Float64bits) of flat
// sequence-pair solves on the perfbench solve-flat schedule: a
// synthetic instance with wire weight 1, 100 moves × 30 stages and the
// stall exit pushed to the last stage. n=1000 anneals with global
// swaps; n=3000 is above the local-move threshold, so it anneals with
// range-limited moves. The bits were recorded before the incremental
// packer learned to skip agreeing stretches between disturbed points,
// so they pin that the packer change moved no coordinate of any
// accepted or rejected move.
var flatPins = []struct {
	n    int
	seed int64
	bits uint64
}{
	{1000, 1, 0x4151577740000000},
	{1000, 2, 0x4150a06f40000000},
	{3000, 3, 0x4170127670000000},
}

// TestPinFlatFinalCost solves each pinned instance through
// service.Solve, the daemon's path, and compares the final cost bit
// for bit.
func TestPinFlatFinalCost(t *testing.T) {
	for _, pin := range flatPins {
		t.Run(fmt.Sprintf("n=%d/seed=%d", pin.n, pin.seed), func(t *testing.T) {
			p, err := placer.Synthetic(placer.SyntheticSpec{N: pin.n, Seed: pin.seed})
			if err != nil {
				t.Fatal(err)
			}
			wp := wire.FromCanon(p)
			wp.Objective.WireWeight = 1
			req := &wire.Request{Problem: *wp, Options: wire.Options{
				Seed: pin.seed, MovesPerStage: 100, MaxStages: 30, StallStages: 30,
			}}
			res, err := service.Solve(t.Context(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.Cost); got != pin.bits {
				t.Errorf("final cost %v (bits %#x), pinned bits %#x", res.Cost, got, pin.bits)
			}
		})
	}
}

// enginePins pin the exact final cost of two engine paths no golden
// fixture covers: multi-start with more than one worker (ParallelAnneal's
// best-of reduction) and the memetic genetic:seqpair engine (Evolve
// followed by Anneal). Both solve a small flat synthetic instance on a
// short schedule through placer.Solve, with wire weight 1.
var enginePins = []struct {
	name   string
	opts   []placer.Option
	bits   uint64
	stages int
	moves  int
}{
	{"seqpair/workers=3", []placer.Option{placer.WithAlgorithm(placer.SeqPair), placer.WithWorkers(3)}, 0x40f1419000000000, 94, 5640},
	{"genetic:seqpair", []placer.Option{placer.WithAlgorithm(placer.GeneticSeqPair)}, 0x40ee694000000000, 55, 2519},
}

// TestPinEngineFinalCost solves each engine pin and compares the final
// cost bit for bit, together with the stage and move totals.
func TestPinEngineFinalCost(t *testing.T) {
	p, err := placer.Synthetic(placer.SyntheticSpec{N: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p.Objective.WireWeight = 1
	for _, pin := range enginePins {
		t.Run(pin.name, func(t *testing.T) {
			opts := append([]placer.Option{
				placer.WithSeed(7),
				placer.WithSchedule(placer.Schedule{MovesPerStage: 60, MaxStages: 40, StallStages: 15}),
			}, pin.opts...)
			res, err := placer.Solve(t.Context(), p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.Cost); got != pin.bits || res.Stages != pin.stages || res.Moves != pin.moves {
				t.Errorf("final cost %v (bits %#x), stages %d, moves %d; pinned bits %#x, stages %d, moves %d",
					res.Cost, got, res.Stages, res.Moves, pin.bits, pin.stages, pin.moves)
			}
		})
	}
}
