package anneal

import (
	"math"
	"math/rand"

	"repro/internal/obs"
)

// defaultTemperLadder is the geometric spacing between neighboring
// rungs of the tempering temperature ladder when Options.TemperLadder
// is unset. 1.6 keeps neighboring rungs close enough that exchange
// acceptance stays useful on the placement objectives (measured
// 20–60 % on the synthetic instances) while spanning more than an
// order of magnitude of temperature across 8 chains.
//
// The ladder is anchored at the top: the hottest rung runs at the
// calibrated (or configured) initial temperature and rung k sits
// TemperLadder^(chains−1−k) below it. Anchoring at the bottom — cold
// rung at the calibrated temperature, hotter rungs above — wastes the
// high rungs, because calibration already targets near-free
// acceptance and anything hotter is a pure random walk. Anchored at
// the top, the ladder covers the whole useful temperature range at
// once: the cold rung starts where a serial schedule would arrive
// only after dozens of cooling stages, and the hot rungs keep the
// mobility the serial schedule front-loads.
const defaultTemperLadder = 3.5

// temperExchangeSalt offsets the dedicated exchange RNG from the
// chain seeds, so enabling exchanges never perturbs any chain's own
// move sequence.
const temperExchangeSalt = 0x7E117E9

// TemperAnneal runs parallel tempering (replica exchange): chains
// replicas anneal concurrently at a geometric temperature ladder
// anchored at the top (the hottest rung at the calibrated base
// temperature, rung k at TemperLadder^(chains−1−k) below it, rung 0
// coldest), and every Options.ExchangeEvery stages neighboring
// rungs attempt a state swap through Snapshot/Restore, accepted with
// the Metropolis criterion min(1, exp((βa−βb)(Ea−Eb))) — a better
// state always migrates toward the cold rung, a worse one climbs the
// ladder with temperature-matched probability. High rungs cross cost
// barriers that would trap a cold chain; exchanges hand their
// discoveries down the ladder.
//
// With exchanges disabled (ExchangeEvery ≤ 0) or fewer than two
// chains the call delegates to ParallelAnneal, bit-identically: rung
// 0 then replicates the exact serial chain of Anneal with the same
// Options, preserving the never-loses-to-serial contract. With
// exchanges enabled each chain still draws the move sequence of its
// multi-start counterpart (the exchange sweep has its own RNG), the
// schedule ends on rung 0's temperature floor, and the run remains
// deterministic for a fixed (Seed, chains, ExchangeEvery).
//
// Cancellation is checked once per stage on the coordinator; chains
// are joined at stage boundaries and exchanges happen between them,
// so a cancelled run never leaves a wedged chain. Stats aggregate all
// chains (Exchanges/ExchangeAccepted count the sweep outcomes);
// InitCost/BestCost/FinalTemp/Worker come from the winning rung, ties
// broken by the lowest rung id.
func TemperAnneal[S MutableSolution](newSolution func(seed int64) S, chains int, opt Options) (S, Stats) {
	if chains < 2 || opt.ExchangeEvery <= 0 {
		return ParallelAnneal(newSolution, chains, opt)
	}
	opt = opt.withDefaults()
	ladder := opt.TemperLadder
	if ladder <= 1 {
		ladder = defaultTemperLadder
	}
	// One span for the whole ladder; the replicas' stage spans parent
	// to it through the derived context.
	var ladderSpan *obs.ActiveSpan
	opt.Context, ladderSpan = obs.StartSpan(opt.Context, "anneal", obs.Int("chains", chains))
	defer ladderSpan.End()

	// Build every replica concurrently: each owns its representation,
	// workspaces and RNG, seeded exactly like ParallelAnneal's chains,
	// and calibrates like a serial chain; the ladder then scales rung
	// k's base temperature.
	sols := make([]S, chains)
	reps := make([]*chain, chains)
	fanOut(chains, "replica", func(k int) {
		seed := chainSeed(opt.Seed, k)
		sols[k] = newSolution(seed)
		r := newChain(sols[k], k, seed, &opt)
		r.temp *= math.Pow(ladder, float64(k-(chains-1)))
		reps[k] = r
	})

	minTemp := opt.MinTemp
	if minTemp <= 0 {
		minTemp = reps[0].temp * 1e-3
	}
	xrng := rand.New(rand.NewSource(opt.Seed + temperExchangeSalt))

	globalBestCost := math.Inf(1)
	var globalBestSnap any
	for _, r := range reps {
		if r.bestCost < globalBestCost {
			globalBestCost = r.bestCost
			globalBestSnap = r.bestSnap
		}
	}
	// The initial best is capture-worthy, exactly as in a serial run.
	newSinceCapture := true

	var exchanges, exchangeAccepted int
	cancelled := false
	stall := 0
	stages := 0
	// The schedule is rung 0's: the run ends when the coldest chain's
	// temperature floor, stage bound or stall bound trips, with stall
	// counted on the ladder-wide best.
	for stages < opt.MaxStages && reps[0].temp > minTemp && stall < opt.StallStages {
		if opt.cancelled() {
			cancelled = true
			break
		}
		stages++
		fanOut(chains, "replica", func(k int) { reps[k].runStage(&opt) })
		improved := false
		for _, r := range reps {
			if r.bestCost < globalBestCost {
				globalBestCost = r.bestCost
				globalBestSnap = r.bestSnap
				improved = true
				newSinceCapture = true
			}
		}
		if improved {
			stall = 0
		} else {
			stall++
		}
		if opt.Checkpoint != nil && newSinceCapture && stages%opt.CheckpointEvery == 0 {
			// Worker -1: the capture is of the ladder-wide best, not any
			// one rung's.
			opt.checkpoint(globalBestSnap, globalBestCost, stages, -1)
			newSinceCapture = false
		}
		// Replica-exchange sweep over neighboring rungs, on the
		// coordinator between stage barriers (no chain is running, so
		// a swap can never race a move and cancellation can never
		// wedge a chain mid-exchange). The sweep's RNG is its own:
		// enabling exchanges changes no chain's move sequence.
		if stages%opt.ExchangeEvery == 0 {
			for k := 0; k < chains-1; k++ {
				a, b := reps[k], reps[k+1]
				exchanges++
				// βa > βb (a is colder); swapping states changes the
				// joint Boltzmann weight by exp((βa−βb)(Ea−Eb)).
				delta := (1/a.temp - 1/b.temp) * (a.cost - b.cost)
				accept := delta >= 0 || xrng.Float64() < math.Exp(delta)
				if opt.Flight != nil {
					// Recorded with the pre-swap costs: the decision's
					// inputs, whichever way it went.
					opt.Flight.Record(obs.Event{
						Kind: obs.EventExchange, Stage: int32(stages),
						Worker: int32(k), Temp: a.temp, Cur: a.cost,
						Peer: int32(k + 1), PeerTemp: b.temp, PeerCost: b.cost,
						Accept: accept,
					})
				}
				if accept {
					exchangeAccepted++
					sa := a.sol.Snapshot()
					a.sol.Restore(b.sol.Snapshot())
					b.sol.Restore(sa)
					a.cost, b.cost = b.cost, a.cost
					a.noteBest()
					b.noteBest()
				}
			}
		}
	}

	stats := make([]Stats, chains)
	for k, r := range reps {
		stats[k] = r.stats
		stats[k].BestCost = r.bestCost
	}
	win, agg := bestOf(stats)
	agg.Cancelled = cancelled
	agg.Exchanges = exchanges
	agg.ExchangeAccepted = exchangeAccepted
	if opt.Checkpoint != nil && newSinceCapture {
		opt.checkpoint(globalBestSnap, globalBestCost, stages, -1)
	}
	reps[win].sol.Restore(reps[win].bestSnap)
	return sols[win], agg
}
