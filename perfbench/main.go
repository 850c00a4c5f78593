// Command perfbench is the benchmark of the placement daemon. It runs
// one workload against an embedded daemon (service.New behind
// service.NewHandler on a loopback listener, configured with placed's
// defaults), checks every answer, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload serve-hit|solve-flat|analog-mixed \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the workload up three times, reports the
// median set-up time, and measures one window of S seconds with
// tracing off: the end-to-end metrics. With --trace 1 it sets up once,
// measures an untraced and a traced window of S/2 seconds each,
// replays each layer's public functions on the workload's instances,
// and reports the per-layer metrics. See README.md for the workloads
// and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times a --trace 0 run sets its workload up.
const setupRounds = 3

// maxLagMS is the generator lag (p99) past which an open-loop run is
// invalid: the schedule it meant to send is not the one it sent.
const maxLagMS = 250

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "serve-hit, solve-flat or analog-mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "length of the measured window(s) in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-hit|solve-flat|analog-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and checks every answer.
func run(w *workload, seed int64, seconds float64, tracing bool) (*result, error) {
	workDir, err := workDirFor()
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	rounds := setupRounds
	if tracing {
		rounds = 1
	}
	var b *bench
	var setups []float64
	var poolSolves []sample
	for i := 0; i < rounds; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		if b, err = newBench(w, seed, seconds, tr, workDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, s := range b.poolSolves {
			s.part = i
			poolSolves = append(poolSolves, s)
		}
	}
	defer b.close()
	fmt.Fprintf(os.Stderr, "%s seed %d: set-up %s s\n", w.name, seed, fmtList(setups))
	if !tracing {
		win := w.window(b, seconds)
		// A class the window lacks is measured where the workload has
		// it: solves in set-up, hits by asking again for what the
		// window solved.
		var extra []sample
		if !hasClass(win.samples, false) {
			extra = poolSolves
		}
		if !hasClass(win.samples, true) {
			extra = append(extra, hitProbes(b, win)...)
		}
		return endToEnd(w, win, extra, setups), nil
	}
	untraced := w.window(b, seconds/2)
	b.d.results.reset()
	b.d.jobs.reset()
	tr.on.Store(true)
	traced := w.window(b, seconds/2)
	hits, gets, storeErrs := b.d.results.hits.Load(), b.d.results.gets.Load(), b.d.results.errors.Load()+b.d.jobs.errors.Load()
	for _, r := range traced.records {
		tr.put(span{Req: r.id, Name: "request", Start: r.due, End: r.done, Hash: r.inst.hash, Job: r.job})
		if r.sent.After(r.due) {
			tr.put(span{Req: r.id, Name: "generator.lag", Start: r.due, End: r.sent})
		}
	}
	rp := &replayer{b: b, tr: tr, accept: map[*instance]float64{}}
	if err := replayLayers(rp, w, traced); err != nil {
		return nil, err
	}
	tr.on.Store(false)
	spans := tr.spans()
	link(spans)
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(spans), path)
	res := perLayer(w, untraced, traced, spans, rp)
	res.Metrics["store.get_hit_ratio"] = metric{ratio(hits, gets), "ratio"}
	res.Metrics["store.errors"] = metric{float64(storeErrs), "count"}
	return res, nil
}

// replayLayers replays each layer on instances the workload uses: the
// pre-solved pool, or what the traced window solved.
func replayLayers(rp *replayer, w *workload, traced *window) error {
	insts := rp.b.pool
	if len(insts) == 0 {
		for i, r := range traced.records {
			if !r.hit && traced.samples[i].ok {
				insts = append(insts, r.inst)
			}
		}
	}
	if len(insts) == 0 {
		return fmt.Errorf("%s: the traced window solved nothing to replay", w.name)
	}
	if err := rp.wireAndService(spread(insts, 8)); err != nil {
		return err
	}
	solveSet := spread(insts, 4)
	if len(insts[0].prob.Symmetry) > 0 {
		// One pool instance per symmetric size: the pool cycles n.
		solveSet = insts[:min(len(insts), symMaxN-symMinN+1)]
	}
	if err := rp.solves(solveSet); err != nil {
		return err
	}
	rp.moves(solveSet, rp.b.seed)
	return nil
}

func hasClass(samples []sample, hit bool) bool {
	for _, s := range samples {
		if s.hit == hit {
			return true
		}
	}
	return false
}

// endToEnd computes the end-to-end metrics of an untraced window.
func endToEnd(w *workload, win *window, extra []sample, setups []float64) *result {
	all := append(append([]sample(nil), win.samples...), extra...)
	lat := summarize(win.samples, nil)
	hit := summarize(all, func(s sample) bool { return s.hit })
	miss := summarize(all, func(s sample) bool { return !s.hit })
	failed := countFailed(all)
	var cost float64
	var solved int
	for _, s := range win.samples {
		if s.ok {
			cost += s.cost
			solved++
		}
	}
	if solved > 0 {
		cost /= float64(solved)
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: len(all),
		Failed:    failed,
		Metrics: map[string]metric{
			"latency_p50_ms":       {finite(lat.P50), "ms"},
			"latency_tail_ms":      {finite(lat.Tail.Value), "ms"},
			"throughput_rps":       {win.throughput, "1/s"},
			"success_share":        {1 - float64(failed)/float64(max(1, len(all))), "share"},
			"hit_latency_p50_ms":   {finite(hit.P50), "ms"},
			"hit_latency_tail_ms":  {finite(hit.Tail.Value), "ms"},
			"miss_latency_p50_ms":  {finite(miss.P50), "ms"},
			"miss_latency_tail_ms": {finite(miss.Tail.Value), "ms"},
			"placement_cost":       {cost, "cost"},
			"setup_s":              {median(setups), "s"},
			"peak_rss_mb":          {peakRSSMB(), "MB"},
		},
	}
	lag := lagP99(win)
	fmt.Fprintf(os.Stderr, "%s: %d requests (%d failed), %.1f/s, solvers %.0f%% busy\n",
		w.name, len(win.samples), countFailed(win.samples), win.throughput, 100*win.solverBusy())
	for _, c := range []struct {
		name string
		st   latencyStats
	}{{"all", lat}, {"hits", hit}, {"misses", miss}} {
		fmt.Fprintf(os.Stderr, "  %-6s n=%-6d p50 %.3f ms, tail p%g %.3f ms (%d samples beyond)\n",
			c.name, c.st.N, c.st.P50, 100*c.st.Tail.Q, c.st.Tail.Value, c.st.Tail.Beyond)
	}
	if win.lags != nil {
		fmt.Fprintf(os.Stderr, "  generator_lag_ms p99 %.3f\n", lag)
		if lag > maxLagMS {
			fmt.Fprintf(os.Stderr, "  run invalid: the generator ran %.1f ms late (p99), over %d ms\n", lag, maxLagMS)
			res.Correct = false
		}
	}
	reportFailures(all)
	return res
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(w *workload, untraced, traced *window, spans []span, rp *replayer) *result {
	self := selfTimes(spans)
	handlers := map[int64]span{}
	for _, s := range spans {
		if s.Name == "http.handler" {
			handlers[s.Req] = s
		}
	}
	var waits, reqKB, respKB []float64
	for i, r := range traced.records {
		reqKB = append(reqKB, float64(len(r.inst.body))/1024)
		respKB = append(respKB, float64(r.respBytes)/1024)
		if h, ok := handlers[r.id]; ok && !r.hit && traced.samples[i].ok {
			waits = append(waits, math.Max(0, ms(h.dur())-float64(r.runtimeMS)))
		}
	}
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range spans {
			if s.Name == name {
				out = append(out, ms(s.dur()))
			}
		}
		return out
	}
	before, after := traced.before, traced.after
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	un, tr := summarize(untraced.samples, nil), summarize(traced.samples, nil)
	all := append(append([]sample(nil), untraced.samples...), traced.samples...)
	failed := countFailed(all)
	gap := treeGap(spans, self)
	fmt.Fprintf(os.Stderr, "%s: untraced p50 %.3f ms (solvers %.0f%% busy), traced p50 %.3f ms (solvers %.0f%% busy)\n",
		w.name, un.P50, 100*untraced.solverBusy(), tr.P50, 100*traced.solverBusy())
	fmt.Fprintf(os.Stderr, "%s traced: %d requests; largest gap between a request's latency and its spans' self times: %v\n",
		w.name, len(traced.records), gap)
	reportFailures(all)
	lag := math.Max(lagP99(untraced), lagP99(traced))
	m := map[string]metric{
		"http.handler_ms":            {med(selfByName(spans, self, "http.handler")), "ms"},
		"http.transport_ms":          {med(selfByName(spans, self, "request")), "ms"},
		"wire.decode_ms":             {med(durs("wire.decode")), "ms"},
		"wire.hash_ms":               {med(durs("wire.hash")), "ms"},
		"wire.encode_ms":             {med(durs("wire.encode")), "ms"},
		"wire.request_kb":            {med(reqKB), "KiB"},
		"wire.response_kb":           {med(respKB), "KiB"},
		"service.submit_ms":          {med(selfByName(spans, self, "service.submit")), "ms"},
		"service.queue_wait_ms":      {med(waits), "ms"},
		"service.queue_wait_tail_ms": {zeroNaN(tailOf(sortedCopy(waits)).Value), "ms"},
		"service.cache_hit_ratio":    {ratio(hits, hits+misses), "ratio"},
		"service.coalesced":          {float64(after.Coalesced - before.Coalesced), "count"},
		"service.shed":               {float64(after.Shed - before.Shed), "count"},
		"service.degraded":           {float64(after.JobsDegraded - before.JobsDegraded), "count"},
		"store.result_get_ms":        {med(durs("store.result_get")), "ms"},
		"store.result_put_ms":        {med(durs("store.result_put")), "ms"},
		"store.job_put_ms":           {med(durs("store.job_put")), "ms"},
		"placer.solve_ms":            {med(durs("placer.solve")), "ms"},
		"anneal.first_stage_ms":      {med(durs("anneal.first_stage")), "ms"},
		"anneal.stage_ms":            {med(durs("anneal.stage")), "ms"},
		"anneal.moves_per_s":         {float64(rp.annealMoves) / math.Max(rp.solveTime.Seconds(), 1e-9), "1/s"},
		"anneal.accept_ratio":        {ratio(int64(rp.annealAccepted), int64(rp.annealMoves)), "ratio"},
		"seqpair.perturb_us":         {perUS(rp.perturb, rp.replayMoves), "us"},
		"seqpair.pack_us":            {perUS(rp.pack, rp.replayMoves), "us"},
		"seqpair.infeasible_ratio":   {ratio(int64(rp.infeasible), int64(rp.replayMoves)), "ratio"},
		"cost.update_us":             {perUS(rp.update, rp.replayMoves), "us"},
		"engine.residual_us": {perUS(rp.solveTime, rp.annealMoves) -
			perUS(rp.perturb+rp.pack+rp.update, rp.replayMoves), "us"},
		"obs.trace_overhead_ms": {finite(tr.P50) - finite(un.P50), "ms"},
		"generator_lag_ms":      {lag, "ms"},
	}
	return &result{Correct: failed == 0 && (traced.lags == nil || lag <= maxLagMS), Attempted: len(all), Failed: failed, Metrics: m}
}

// lagP99 is the open-loop generator's p99 lag in ms (0 for a closed
// loop).
func lagP99(w *window) float64 {
	if len(w.lags) == 0 {
		return 0
	}
	v, _ := percentile(sortedCopy(w.lags), 0.99)
	return v
}

// finite maps a latency that reads as beyond every limit (a failure
// landed on the percentile) to the request timeout, so it still
// encodes as a number.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return ms(requestTimeout)
	}
	return zeroNaN(v)
}

// zeroNaN reports an empty class as 0.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func med(values []float64) float64 { return zeroNaN(median(values)) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// reportFailures prints how many requests failed for each reason.
func reportFailures(samples []sample) {
	reasons := map[string]int{}
	for _, s := range samples {
		if !s.ok {
			reasons[s.reason]++
		}
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  FAILED %d× %s\n", reasons[k], k)
	}
}

func fmtList(values []float64) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, ", ")
}
