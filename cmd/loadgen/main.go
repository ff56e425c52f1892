// Command loadgen drives a live rightsized daemon over HTTP with many
// concurrent advisory sessions and reports aggregate throughput: the
// load harness of the serving tier.
//
// Usage:
//
//	loadgen [-url http://127.0.0.1:8080] [-sessions 16] [-slots 512]
//	        [-batch 1] [-alg alg-b] [-fleet quickstart] [-seed 1]
//	        [-retries 8] [-subscribe] [-ack-file FILE]
//	        [-overload] [-offered 2000] [-steps 5] [-step 2s]
//
// One goroutine per session opens a fresh session, pushes -slots demand
// values (the fleet scenario's trace, cycled) in batches of -batch, and
// deletes the session. On exit loadgen prints total slots, wall time,
// aggregate slots/sec, client-observed push latency quantiles —
// p50/p90/p99 over HTTP round-trips, so daemon-side time (the healthz
// quantiles) plus transport — and the generator's own allocation rate,
// so a noisy client never masquerades as daemon-side regression.
// Compare -batch 1 against -batch 16 to see the round-trip
// amortization, and scale -sessions to probe shard contention.
//
// Against a daemon running admission control (rightsized -rate /
// -max-inflight / -push-deadline), loadgen is a well-behaved client:
// shed pushes (429/503) honor the server's Retry-After with jitter,
// timeouts (504) retry with jittered exponential backoff — both are
// safe, a shed or timed-out push fed nothing — and the summary splits
// served / shed / timeout / hard-error counts so an overloaded run is
// interpretable instead of one opaque failure total.
//
// -subscribe attaches one SSE consumer per session (GET
// /v1/sessions/{id}/stream) before any slot is pushed and measures
// advisory delivery latency: the wall time from a slot's push request
// leaving the client to its advisory event arriving on the stream —
// push round-trip plus fan-out, the end-to-end number a dashboard
// consumer actually experiences. The summary adds an "advisory
// delivery" line with event counts and p50/p90/p99, and every stream
// must terminate with the server's end event (reason "deleted", fired
// by the session delete) or the run reports it.
//
// -ack-file turns loadgen into the load half of a crash harness (see
// the README's "Durability" section): every session's acknowledged
// (2xx) slot count is written to FILE as "id count" lines, sessions are
// left open instead of deleted, and the daemon dying mid-push — the
// whole point of a kill test — ends the run cleanly instead of
// aborting it. After restarting the daemon, compare each session's
// recovered fed count against the file: with -wal-sync always, fed must
// be at least the acknowledged count for every session.
//
// -overload switches to the saturation probe: instead of a fixed slot
// budget it paces an aggregate offered load starting at -offered
// slots/sec and doubles it -steps times, -step long each, WITHOUT
// retrying shed pushes (the point is to drive past the knee, not to
// comply). Each step prints offered vs. served slots/sec, the shed /
// timeout split, and served-push p99. Against a rate-limited daemon the
// served column plateaus at the configured rate while offered keeps
// doubling, shed responses all carry Retry-After, and the served p99
// stays bounded — overload degrades into cheap refusals, not collapse.
//
// The client is built not to be the bottleneck: push bodies are encoded
// with the zero-reflection internal/wire encoder into a per-worker
// buffer reused across requests, responses drain into a reused buffer,
// and the transport keeps one idle connection per session so steady
// state never redials.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rightsizing "repro"
	"repro/internal/serve"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	url := flag.String("url", "http://127.0.0.1:8080", "rightsized base URL")
	sessions := flag.Int("sessions", 16, "concurrent sessions")
	slots := flag.Int("slots", 512, "slots to push per session")
	batch := flag.Int("batch", 1, "slots per push request (1 = the single-slot wire form)")
	alg := flag.String("alg", "alg-b", "algorithm (registry name)")
	fleet := flag.String("fleet", "quickstart", "fleet scenario name")
	seed := flag.Int64("seed", 1, "scenario seed")
	retries := flag.Int("retries", 8, "retry budget per push for shed (429/503) and timed-out (504) responses")
	subscribe := flag.Bool("subscribe", false, "attach one SSE advisory consumer per session and report delivery latency")
	ackFile := flag.String("ack-file", "", "crash-harness mode: record per-session acked slot counts here, keep sessions open, tolerate daemon death")
	overload := flag.Bool("overload", false, "saturation probe: pace offered load past the knee instead of pushing a slot budget")
	offered := flag.Float64("offered", 2000, "overload mode: first step's offered load, slots/sec")
	steps := flag.Int("steps", 5, "overload mode: number of load-doubling steps")
	stepDur := flag.Duration("step", 2*time.Second, "overload mode: duration of each step")
	flag.Parse()
	if *sessions < 1 || *slots < 1 || *batch < 1 {
		log.Fatal("-sessions, -slots and -batch must all be >= 1")
	}
	if *ackFile != "" && (*subscribe || *overload) {
		log.Fatal("-ack-file is a crash harness; it does not combine with -subscribe or -overload")
	}

	sc, ok := rightsizing.LookupScenario(*fleet)
	if !ok {
		log.Fatalf("unknown fleet scenario %q", *fleet)
	}
	trace := sc.Instance(*seed).Lambda

	cl := newClient(strings.TrimRight(*url, "/"), *sessions)
	var health struct {
		OK bool `json:"ok"`
	}
	if err := cl.Call("GET", "/v1/healthz", nil, &health); err != nil || !health.OK {
		log.Fatalf("daemon not healthy at %s: %v", *url, err)
	}

	if *overload {
		runOverload(cl, trace, *sessions, *batch, *alg, *fleet, *seed, *offered, *steps, *stepDur)
		return
	}

	results := make([]tally, *sessions)
	var subs []*streamTally
	if *subscribe {
		subs = make([]*streamTally, *sessions)
		for i := range subs {
			subs[i] = newStreamTally(*slots)
		}
	}
	ids := make([]string, *sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("loadgen-%d-%03d", os.Getpid(), i)
	}
	var wg sync.WaitGroup
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var st *streamTally
			if subs != nil {
				st = subs[i]
			}
			results[i] = driveSession(cl, ids[i], *alg, *fleet, *seed, trace, *slots, *batch, *retries, st, *ackFile != "")
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	var sum tally
	interrupted := 0
	for i := range results {
		if results[i].err != nil {
			log.Fatalf("session %d: %v", i, results[i].err)
		}
		if results[i].interrupted {
			interrupted++
		}
		sum.add(&results[i])
	}
	// The ack file is the durability ledger: write it before any summary
	// so a crash-harness checker always finds it, even if the run was
	// cut short enough that the statistics below have nothing to say.
	if *ackFile != "" {
		var ledger strings.Builder
		for i := range ids {
			fmt.Fprintf(&ledger, "%s %d\n", ids[i], results[i].acked)
		}
		if err := os.WriteFile(*ackFile, []byte(ledger.String()), 0o644); err != nil {
			log.Fatalf("writing -ack-file: %v", err)
		}
		fmt.Printf("acked %d slots across %d sessions (%d interrupted by daemon death) -> %s\n",
			sum.acked, *sessions, interrupted, *ackFile)
		if len(sum.lats) == 0 {
			return
		}
	}
	sort.Slice(sum.lats, func(i, j int) bool { return sum.lats[i] < sum.lats[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(sum.lats)))
		if i >= len(sum.lats) {
			i = len(sum.lats) - 1
		}
		return sum.lats[i]
	}
	total := *sessions * *slots
	if *ackFile != "" {
		total = sum.acked // an interrupted run pushed only what was acked
	}
	fmt.Printf("sessions=%d slots/session=%d batch=%d\n", *sessions, *slots, *batch)
	fmt.Printf("pushed %d slots in %v: %.0f slots/sec aggregate (%d served HTTP pushes)\n",
		total, wall.Round(time.Millisecond), float64(total)/wall.Seconds(), len(sum.lats))
	fmt.Printf("push latency p50=%v p90=%v p99=%v max=%v\n",
		q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), sum.lats[len(sum.lats)-1].Round(time.Microsecond))
	// The failure breakdown: shed and timed-out pushes were retried (up
	// to -retries) and are NOT in the throughput above; a lumped "errors"
	// count would make an overloaded run unreadable.
	fmt.Printf("shed: %d throttled (429) + %d overloaded (503), %d/%d carrying Retry-After; timeouts: %d (504); hard errors: 0\n",
		sum.throttled, sum.overloaded, sum.shedWithRA, sum.throttled+sum.overloaded, sum.timeouts)
	// Client-side allocation rate across the whole run (loadgen's own
	// bookkeeping included): if this climbs, the generator is eating the
	// machine and the slots/sec above stops being a daemon measurement.
	fmt.Printf("client allocs: %.0f allocs/push, %.0f B/push\n",
		float64(after.Mallocs-before.Mallocs)/float64(len(sum.lats)),
		float64(after.TotalAlloc-before.TotalAlloc)/float64(len(sum.lats)))

	if *subscribe {
		var dl []time.Duration
		events := 0
		for i, st := range subs {
			if err := st.wait(10 * time.Second); err != nil {
				log.Fatalf("stream %d: %v", i, err)
			}
			if st.reason != "deleted" {
				log.Printf("WARNING: stream %d ended with reason %q, want \"deleted\"", i, st.reason)
			}
			dl = append(dl, st.lats...)
			events += st.events
		}
		if len(dl) == 0 {
			log.Fatal("subscribed streams delivered no advisories")
		}
		sort.Slice(dl, func(i, j int) bool { return dl[i] < dl[j] })
		dq := func(p float64) time.Duration {
			i := int(p * float64(len(dl)))
			if i >= len(dl) {
				i = len(dl) - 1
			}
			return dl[i]
		}
		fmt.Printf("advisory delivery: %d events over %d streams, latency p50=%v p90=%v p99=%v max=%v\n",
			events, len(subs),
			dq(0.50).Round(time.Microsecond), dq(0.90).Round(time.Microsecond),
			dq(0.99).Round(time.Microsecond), dl[len(dl)-1].Round(time.Microsecond))
	}
}

// tally is one worker's (or the aggregate) outcome breakdown.
type tally struct {
	lats        []time.Duration // served pushes only
	acked       int             // slots acknowledged with 2xx
	throttled   int             // 429 responses
	overloaded  int             // 503 responses
	shedWithRA  int             // shed responses that carried Retry-After
	timeouts    int             // 504 responses
	retried     int             // total retry attempts
	interrupted bool            // the daemon died under us (-ack-file mode only)
	err         error
}

func (t *tally) add(o *tally) {
	t.lats = append(t.lats, o.lats...)
	t.acked += o.acked
	t.throttled += o.throttled
	t.overloaded += o.overloaded
	t.shedWithRA += o.shedWithRA
	t.timeouts += o.timeouts
	t.retried += o.retried
}

// classify files one non-2xx push response into the tally and reports
// whether the push may be retried (shed and deadline responses fed
// nothing by contract; anything else is a hard error).
func (t *tally) classify(o pushOutcome) (retryable bool) {
	switch o.status {
	case http.StatusTooManyRequests:
		t.throttled++
	case http.StatusServiceUnavailable:
		t.overloaded++
	case http.StatusGatewayTimeout:
		t.timeouts++
		return true
	default:
		return false
	}
	if o.hasRetryAfter {
		t.shedWithRA++
	}
	return true
}

// driveSession opens one session, pushes slots demands in batches and
// deletes it, timing every served HTTP push round-trip. Shed (429/503)
// pushes wait out the server's Retry-After with jitter; timeouts (504)
// back off exponentially with jitter; both then retry the identical
// body — the wire encoding is reused, not rebuilt. The push body is
// wire-encoded into a buffer owned by this worker and reused for every
// request, so the generator allocates next to nothing per push.
//
// With a non-nil st (-subscribe), an SSE consumer is attached after the
// open and before the first push — a subscription only sees advisories
// published after it exists — and every push attempt stamps its slots'
// send times so the consumer can measure delivery latency.
func driveSession(cl *client, id, alg, fleet string, seed int64, trace []float64, slots, batch, retries int, st *streamTally, keep bool) (res tally) {
	open := serve.OpenRequest{ID: id, Alg: alg}
	open.Fleet.Scenario = fleet
	open.Fleet.Seed = seed
	if err := cl.Call("POST", "/v1/sessions", open, nil); err != nil {
		res.err = err
		return
	}
	if !keep {
		defer func() {
			if err := cl.Call("DELETE", "/v1/sessions/"+id, nil, nil); err != nil && res.err == nil {
				res.err = err
			}
		}()
	}
	if st != nil {
		if err := st.start(cl, "/v1/sessions/"+id+"/stream"); err != nil {
			res.err = err
			return
		}
	}

	path := "/v1/sessions/" + id + "/push"
	res.lats = make([]time.Duration, 0, (slots+batch-1)/batch)
	reqs := make([]serve.PushRequest, 0, batch)
	w := newPushWorker()
	rng := rand.New(rand.NewSource(int64(len(id)) ^ seed<<16))
	fed := 0
	for fed < slots {
		reqs = reqs[:0]
		for len(reqs) < batch && fed+len(reqs) < slots {
			reqs = append(reqs, serve.PushRequest{Lambda: trace[(fed+len(reqs))%len(trace)]})
		}
		var err error
		if batch == 1 {
			w.body, err = wire.AppendPushRequest(w.body[:0], &reqs[0])
		} else {
			w.body, err = wire.AppendPushRequests(w.body[:0], reqs)
		}
		if err != nil {
			res.err = err
			return
		}
		backoff := 50 * time.Millisecond
		for attempt := 0; ; attempt++ {
			if st != nil {
				st.stamp(fed, len(reqs))
			}
			t0 := time.Now()
			o, err := cl.push(path, w)
			if err != nil {
				// A transport error is the daemon gone mid-request. In
				// crash-harness mode that is the experiment, not a failure:
				// the push was never acknowledged, so it simply isn't
				// counted, and the run ends here for this session.
				if keep {
					res.interrupted = true
					return
				}
				res.err = err
				return
			}
			if o.status < 300 {
				res.lats = append(res.lats, time.Since(t0))
				res.acked += len(reqs)
				break
			}
			if !res.classify(o) || attempt >= retries {
				res.err = fmt.Errorf("POST %s: %s (HTTP %d, %d retries)", path, o.errMsg, o.status, attempt)
				return
			}
			res.retried++
			wait := backoff
			if o.hasRetryAfter {
				wait = o.retryAfter
			} else if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			// Full jitter over the upper half: desynchronizes the retry
			// herd while never retrying before half the advertised wait.
			wait = wait/2 + time.Duration(rng.Int63n(int64(wait/2)+1))
			time.Sleep(wait)
		}
		fed += len(reqs)
	}
	return
}

// runOverload paces an aggregate offered load across the worker pool,
// doubling it each step, and reports served vs. offered per step. Shed
// pushes are dropped, not retried: compliance would cap offered load at
// the server's rate and hide the plateau this mode exists to show.
func runOverload(cl *client, trace []float64, sessions, batch int, alg, fleet string, seed int64, offered float64, steps int, stepDur time.Duration) {
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("loadgen-ov-%d-%03d", os.Getpid(), i)
		open := serve.OpenRequest{ID: ids[i], Alg: alg}
		open.Fleet.Scenario = fleet
		open.Fleet.Seed = seed
		if err := cl.Call("POST", "/v1/sessions", open, nil); err != nil {
			log.Fatalf("open %s: %v", ids[i], err)
		}
	}
	defer func() {
		for _, id := range ids {
			if err := cl.Call("DELETE", "/v1/sessions/"+id, nil, nil); err != nil {
				log.Printf("delete %s: %v", id, err)
			}
		}
	}()

	fmt.Printf("overload probe: %d sessions, batch %d, %v per step\n", sessions, batch, stepDur)
	fmt.Printf("%14s %12s %12s %8s %8s %8s %12s\n",
		"offered/s", "attempted/s", "served/s", "shed", "timeout", "hard", "p99(served)")

	fedPos := make([]int, sessions) // per-worker trace cursor, continuous across steps
	for s := 0; s < steps; s++ {
		rate := offered * float64(int(1)<<s)
		interval := time.Duration(float64(batch) * float64(time.Second) / rate)
		tallies := make([]tally, sessions)
		var hard atomic.Int64
		var ticks atomic.Int64
		start := time.Now()
		deadline := start.Add(stepDur)

		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := newPushWorker()
				path := "/v1/sessions/" + ids[i] + "/push"
				reqs := make([]serve.PushRequest, batch)
				for {
					// Claim the next slot of the shared pace schedule.
					k := ticks.Add(1) - 1
					sendAt := start.Add(time.Duration(k) * interval)
					if sendAt.After(deadline) {
						ticks.Add(-1) // unclaimed: keep attempted/s honest
						return
					}
					if d := time.Until(sendAt); d > 0 {
						time.Sleep(d)
					}
					for j := range reqs {
						reqs[j] = serve.PushRequest{Lambda: trace[fedPos[i]%len(trace)]}
						fedPos[i]++
					}
					var err error
					if batch == 1 {
						w.body, err = wire.AppendPushRequest(w.body[:0], &reqs[0])
					} else {
						w.body, err = wire.AppendPushRequests(w.body[:0], reqs)
					}
					if err != nil {
						log.Fatalf("encode: %v", err)
					}
					t0 := time.Now()
					o, perr := cl.push(path, w)
					if perr != nil {
						hard.Add(1)
						continue
					}
					if o.status < 300 {
						tallies[i].lats = append(tallies[i].lats, time.Since(t0))
						continue
					}
					if !tallies[i].classify(o) {
						hard.Add(1)
					}
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)

		var sum tally
		for i := range tallies {
			sum.add(&tallies[i])
		}
		sort.Slice(sum.lats, func(a, b int) bool { return sum.lats[a] < sum.lats[b] })
		p99 := time.Duration(0)
		if n := len(sum.lats); n > 0 {
			i := int(0.99 * float64(n))
			if i >= n {
				i = n - 1
			}
			p99 = sum.lats[i]
		}
		attempted := ticks.Load()
		shed := sum.throttled + sum.overloaded
		fmt.Printf("%14.0f %12.0f %12.0f %8d %8d %8d %12v\n",
			rate,
			float64(attempted*int64(batch))/elapsed.Seconds(),
			float64(len(sum.lats)*batch)/elapsed.Seconds(),
			shed, sum.timeouts, hard.Load(), p99.Round(time.Microsecond))
		if shed > 0 && sum.shedWithRA < shed {
			log.Printf("WARNING: %d/%d shed responses missing Retry-After", shed-sum.shedWithRA, shed)
		}
	}
}

// streamTally is one session's SSE consumer: a goroutine reading the
// advisory stream, matching each advisory event's id (the slot number)
// against the slot's stamped send time. sendAt entries are atomics
// because the pusher stamps while the consumer reads.
type streamTally struct {
	sendAt []int64 // unix nanos per slot, atomic
	lats   []time.Duration
	events int    // advisory frames seen (stamped or not)
	reason string // the end event's reason
	done   chan struct{}
	err    error
}

func newStreamTally(slots int) *streamTally {
	return &streamTally{sendAt: make([]int64, slots), done: make(chan struct{})}
}

// stamp records now as slots [first, first+n)'s send time; a retried
// push re-stamps, so latency is measured from the attempt that served.
func (st *streamTally) stamp(first, n int) {
	now := time.Now().UnixNano()
	for i := first; i < first+n && i < len(st.sendAt); i++ {
		atomic.StoreInt64(&st.sendAt[i], now)
	}
}

// start subscribes and spawns the reader; it returns once the server
// has acknowledged the stream (HTTP 200), so advisories for pushes made
// after start cannot be missed.
func (st *streamTally) start(c *client, path string) error {
	req, err := http.NewRequest("GET", c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	go st.consume(resp.Body)
	return nil
}

func (st *streamTally) consume(body io.ReadCloser) {
	defer close(st.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var event, id, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // frame boundary: dispatch what accumulated
			switch event {
			case "advisory":
				st.events++
				if slot, err := strconv.Atoi(id); err == nil && slot >= 0 && slot < len(st.sendAt) {
					if ns := atomic.LoadInt64(&st.sendAt[slot]); ns > 0 {
						st.lats = append(st.lats, time.Since(time.Unix(0, ns)))
					}
				}
			case "end":
				var eb struct {
					Reason string `json:"reason"`
				}
				_ = json.Unmarshal([]byte(data), &eb)
				st.reason = eb.Reason
				return
			}
			event, id, data = "", "", ""
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
	st.err = sc.Err()
	if st.err == nil {
		st.err = fmt.Errorf("stream closed without an end event")
	}
}

// wait blocks until the stream's end event (or reader failure), bounded
// by timeout.
func (st *streamTally) wait(timeout time.Duration) error {
	select {
	case <-st.done:
		return st.err
	case <-time.After(timeout):
		return fmt.Errorf("stream still open %v after the session delete", timeout)
	}
}

// pushWorker holds one session goroutine's reusable push state: the
// encoded body, the reader handed to the transport, and the response
// drain buffer. None of it is reallocated between pushes.
type pushWorker struct {
	body []byte
	rd   *bytes.Reader
	resp bytes.Buffer
}

func newPushWorker() *pushWorker {
	return &pushWorker{body: make([]byte, 0, 512), rd: bytes.NewReader(nil)}
}

// client is the rightsized API client plus loadgen's pooled-buffer
// push. Its transport keeps one idle connection per concurrent session
// (DefaultTransport caps at 2 per host, which would force most workers
// to redial every push).
type client struct {
	serve.Client
}

func newClient(base string, sessions int) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = sessions + 2
	tr.MaxIdleConnsPerHost = sessions + 2
	return &client{serve.Client{Base: base, HTTP: http.Client{Transport: tr}}}
}

// pushOutcome is one push response, classified enough for the retry
// loop: the status, the parsed Retry-After (if any) and the server's
// error prose for hard failures.
type pushOutcome struct {
	status        int
	retryAfter    time.Duration
	hasRetryAfter bool
	errMsg        string
}

// push posts the worker's encoded body and drains the response into the
// worker's buffer, reusing both across calls. Transport failures are
// the returned error; HTTP-level failures come back in the outcome for
// the caller to classify.
func (c *client) push(path string, w *pushWorker) (pushOutcome, error) {
	w.rd.Reset(w.body)
	req, err := http.NewRequest("POST", c.Base+path, w.rd)
	if err != nil {
		return pushOutcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return pushOutcome{}, err
	}
	defer resp.Body.Close()
	w.resp.Reset()
	if _, err := w.resp.ReadFrom(resp.Body); err != nil {
		return pushOutcome{}, err
	}
	o := pushOutcome{status: resp.StatusCode}
	if resp.StatusCode >= 300 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				o.retryAfter = time.Duration(secs) * time.Second
				o.hasRetryAfter = true
			}
		}
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(w.resp.Bytes(), &eb) == nil && eb.Error != "" {
			o.errMsg = eb.Error
		} else {
			o.errMsg = "HTTP " + strconv.Itoa(resp.StatusCode)
		}
	}
	return o, nil
}
