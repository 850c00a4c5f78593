package main

import (
	"math"
	"sort"
)

// sample is one request the load sent.
type sample struct {
	// latencyMS runs from the request's due time (open loop) or send
	// time (closed loop) until its response was fully read.
	latencyMS float64
	// hit is the request's planned class: answered from the cache, or
	// solved.
	hit bool
	// ok is false for a failed, refused, timed-out or wrong answer.
	ok bool
	// reason says why a request failed.
	reason string
	// cost is the answer's final placement cost (ok requests only).
	cost float64
	// part is the third of the window (or the set-up round) the
	// request was sent in; see summarize.
	part int
}

// effectiveLatency is what a request counts as in the latency figures:
// a failed request misses every limit, so it reads as +Inf.
func (s sample) effectiveLatency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return s.latencyMS
}

// percentile returns the nearest-rank q-quantile of sorted values and
// how many samples lie beyond its rank.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // q·n is exact in decimal, not always in binary
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// tailQuantiles are tried highest first. p90, p99 and p99.9 are the
// tail proper; p75 and p50 stand in for classes with fewer than 100
// samples, where no tail percentile has ten samples beyond it.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a tail percentile.
const minBeyond = 10

// tail is a latency tail figure with the percentile it was read at.
type tail struct {
	Q      float64
	Value  float64
	Beyond int
	N      int
}

// tailOf applies the tail rule to sorted values: the highest candidate
// percentile with at least minBeyond samples beyond it. With fewer than
// 2·minBeyond samples it falls back to the median and reports the
// shortfall in Beyond.
func tailOf(sorted []float64) tail {
	for _, q := range tailQuantiles {
		v, beyond := percentile(sorted, q)
		if beyond >= minBeyond {
			return tail{Q: q, Value: v, Beyond: beyond, N: len(sorted)}
		}
	}
	v, beyond := percentile(sorted, 0.5)
	return tail{Q: 0.5, Value: v, Beyond: beyond, N: len(sorted)}
}

// latencyStats summarizes one class of samples.
type latencyStats struct {
	N, Failed int
	P50       float64
	Tail      tail
}

// summarize computes the median and tail of the samples keep selects,
// counting every failure as beyond every limit.
//
// Samples come in parts: the thirds of a timed window, or the rounds
// of a repeated set-up. When every part is large enough for a figure
// on its own, the figure is the median over the parts, so a stall of
// the machine during one part does not move it; otherwise the parts
// are pooled. The median needs 2·minBeyond samples per part, a tail
// above the median 4·minBeyond.
func summarize(samples []sample, keep func(sample) bool) latencyStats {
	var lat []float64
	parts := map[int][]float64{}
	st := latencyStats{}
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		lat = append(lat, s.effectiveLatency())
		parts[s.part] = append(parts[s.part], s.effectiveLatency())
		if !s.ok {
			st.Failed++
		}
	}
	sort.Float64s(lat)
	st.N = len(lat)
	st.P50, _ = percentile(lat, 0.5)
	st.Tail = tailOf(lat)
	if len(parts) < 2 {
		return st
	}
	// Every part is read at the percentile the smallest part supports.
	var small []float64
	for _, p := range parts {
		sort.Float64s(p)
		if small == nil || len(p) < len(small) {
			small = p
		}
	}
	q := tailOf(small)
	var p50s, tails []float64
	for _, p := range parts {
		v, _ := percentile(p, 0.5)
		p50s = append(p50s, v)
		v, _ = percentile(p, q.Q)
		tails = append(tails, v)
	}
	if len(small) >= 2*minBeyond {
		st.P50 = median(p50s)
	}
	if len(small) >= 4*minBeyond {
		st.Tail = tail{Q: q.Q, Value: median(tails), Beyond: q.Beyond, N: len(small)}
	}
	return st
}

// median returns the median of values (NaN when empty).
func median(values []float64) float64 {
	v, _ := percentile(sortedCopy(values), 0.5)
	return v
}

// sortedCopy returns values sorted ascending.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
