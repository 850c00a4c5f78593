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
