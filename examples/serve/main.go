// Serve: the placement service end to end, in one process — start
// the scheduler behind the same HTTP handler cmd/placed serves, then
// act as a client: discover the valid algorithms from
// GET /v1/algorithms, POST the Miller op amp in the canonical wire
// format, poll the job to completion, re-POST the identical request
// to hit the content-addressed result cache, race the portfolio,
// cancel a long run to get its best-so-far placement, and ride out
// load shedding: when a saturated daemon answers 429 + Retry-After,
// the client backs off with jitter and resubmits the identical bytes
// — content addressing makes the retry idempotent.
//
//	go run ./examples/serve
//
// Against a real daemon the client half is unchanged: point base at
// `placed -addr :8080` instead of the httptest server.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

func main() {
	sched := service.New(service.Config{Workers: 2})
	defer sched.Close()
	srv := httptest.NewServer(service.NewHandler(sched))
	defer srv.Close()
	base := srv.URL

	// 0. No guessing algorithm strings: the daemon lists the placer
	// registry (every engine plus the portfolio meta-method).
	fmt.Print("GET /v1/algorithms ->")
	for _, a := range httpDo[[]placer.Info](http.MethodGet, base+"/v1/algorithms", nil) {
		fmt.Printf(" %s", a.Name)
	}
	fmt.Println()

	// The bench crosses the wire as a canonical, versioned problem;
	// its hash is the content address identical requests share.
	miller, err := placer.Benchmark("miller")
	if err != nil {
		log.Fatal(err)
	}
	prob := wire.FromCanon(miller)
	hash, _ := prob.Hash()
	fmt.Printf("problem %q, content address %s...\n", prob.Name, hash[:12])

	req := wire.Request{Problem: *prob, Options: wire.Options{
		Method: placer.SeqPair, Seed: 3, MovesPerStage: 150, MaxStages: 200, StallStages: 40,
	}}

	// 1. Cold solve: async submit, then poll.
	job := post(base, req, false)
	fmt.Printf("POST /v1/place -> job %s (%s)\n", job.ID, job.State)
	job = pollDone(base, job.ID)
	fmt.Printf("  done: cost %.0f, %dx%d bounding box, legal=%v, violations=%d\n",
		job.Result.Cost, job.Result.BBoxW, job.Result.BBoxH, job.Result.Legal, len(job.Result.Violations))
	if bd := job.Result.Breakdown; bd != nil {
		fmt.Printf("  cost breakdown: area %.0f + hpwl %.0f\n", bd.Area, bd.HPWL)
	}

	// 2. Identical POST: served from the result cache, same placement.
	again := post(base, req, true)
	fmt.Printf("identical POST -> %s, cache_hit=%v, same cost %.0f\n",
		again.State, again.CacheHit, again.Result.Cost)

	// 3. Portfolio: race seqpair and bstar on the same problem.
	req.Options.Method = wire.MethodPortfolio
	race := post(base, req, true)
	fmt.Printf("portfolio -> winner %s at cost %.0f (feasibility-first ranking)\n",
		race.Result.Method, race.Result.Cost)

	// 4. Cancellation: a long run (near-flat cooling, so it will not
	// finish on its own), stopped shortly after its first progress
	// report; the job keeps the best placement found so far.
	req.Options = wire.Options{Method: placer.BStar, MovesPerStage: 400,
		MaxStages: 100000, StallStages: 100000, Cooling: 0.9999}
	long := post(base, req, false)
	for {
		j := get(base, long.ID)
		if j.Progress != nil && j.Progress.Stage > 0 {
			fmt.Printf("live progress: stage %d, best %.0f, %.0f moves/sec\n",
				j.Progress.Stage, j.Progress.BestCost, j.Progress.MovesPerSec)
			break
		}
		if j.State.Terminal() {
			log.Fatalf("long job ended %s before reporting progress: %s", j.State, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	httpDo[service.JobView](http.MethodDelete, base+"/v1/jobs/"+long.ID, nil)
	cancelled := pollDone(base, long.ID)
	fmt.Printf("DELETE -> %s, best-so-far cost %.0f after %d stages\n",
		cancelled.State, cancelled.Result.Cost, cancelled.Result.Stages)

	// 5. Load shedding: a deliberately tiny daemon (one worker, queue
	// depth one) refuses the overflow POST with 429 + Retry-After
	// instead of queueing without bound. postRetry backs off with
	// jitter, honours the server's hint, and resubmits the identical
	// bytes — the content hash names the job, so a retry can only
	// coalesce with the in-flight copy or hit the cache, never
	// double-solve.
	tiny := service.New(service.Config{Workers: 1, QueueDepth: 1})
	defer tiny.Close()
	tsrv := httptest.NewServer(service.NewHandler(tiny))
	defer tsrv.Close()

	slow := req
	slow.Options = wire.Options{Method: placer.SeqPair, Seed: 7, MovesPerStage: 150,
		MaxStages: 100000, StallStages: 100000, Cooling: 0.9999, TimeoutMS: 1500}
	blocker := post(tsrv.URL, slow, false) // occupies the only worker...
	for get(tsrv.URL, blocker.ID).State != service.StateRunning {
		time.Sleep(2 * time.Millisecond)
	}
	slow.Options.Seed = 8
	post(tsrv.URL, slow, false) // ...and this one fills the queue,
	slow.Options.Seed = 9
	shed := postRetry(tsrv.URL, slow) // so this POST is shed with 429.
	fmt.Printf("shed POST accepted after backoff as job %s (%s)\n", shed.ID, shed.State)
}

// postRetry POSTs a request, treating 429 (load shed) and 5xx
// (drain, transient failure) as retryable: exponential backoff with
// jitter, capped, preferring the server's Retry-After hint when one
// is sent. Safe to call blindly because submission is idempotent —
// identical request bytes hash to the same content address.
func postRetry(base string, req wire.Request) service.JobView {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	backoff := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode < 500 {
			defer resp.Body.Close()
			var v service.JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				log.Fatal(err)
			}
			return v
		}
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				delay = time.Duration(secs) * time.Second
			}
		}
		resp.Body.Close()
		fmt.Printf("  POST -> %d, backing off %s (attempt %d)\n",
			resp.StatusCode, delay.Round(time.Millisecond), attempt)
		if attempt >= 20 {
			log.Fatalf("gave up after %d attempts", attempt)
		}
		time.Sleep(delay)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

func post(base string, req wire.Request, wait bool) service.JobView {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	url := base + "/v1/place"
	if wait {
		url += "?wait=1"
	}
	return httpDo[service.JobView](http.MethodPost, url, body)
}

func get(base, id string) service.JobView {
	return httpDo[service.JobView](http.MethodGet, base+"/v1/jobs/"+id, nil)
}

func pollDone(base, id string) service.JobView {
	for {
		j := get(base, id)
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// httpDo sends one request and decodes its JSON answer into a T.
func httpDo[T any](method, url string, body []byte) T {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatalf("%s %s: %v", method, url, err)
	}
	return v
}
