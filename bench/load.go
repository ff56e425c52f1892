package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wire"
)

// workers is the number of client connections and load goroutines: one
// per CPU of the 2-CPU machine the benchmark is sized for, so the load
// comes from one process with at most nproc threads doing the sending.
const workers = 2

// session is the client's view of one served session: its generator and
// the slots generated but not yet acknowledged. A refused push leaves its
// slots pending and the next push to the session resends them, so the
// daemon receives exactly the generated sequence whatever fails.
type session struct {
	id   string
	path string
	gen  *slotGen
	next []float64
	fed  int
}

func (s *session) take(n int) []float64 {
	for len(s.next) < n {
		s.next = append(s.next, s.gen.next())
	}
	return s.next[:n]
}

func (s *session) ack(n int) {
	s.next = s.next[:copy(s.next, s.next[n:])]
	s.fed += n
}

// loader sends a plan's traffic to one server over `workers` connections.
// Worker w owns the sessions at schedule positions w, w+workers, ...; a
// session therefore never has two pushes in flight.
type loader struct {
	p        *plan
	sessions []*session
	conns    []*conn
	rec      *recorder // client spans, when tracing
}

func newLoader(p *plan, addr string, rec *recorder) *loader {
	ld := &loader{p: p, sessions: make([]*session, len(p.ids)), rec: rec}
	for i, id := range p.ids {
		ld.sessions[i] = &session{id: id, path: "/v1/sessions/" + id + "/push", gen: p.gen(i)}
	}
	for range workers {
		ld.conns = append(ld.conns, newConn(addr))
	}
	return ld
}

func (ld *loader) close() {
	for _, c := range ld.conns {
		c.close()
	}
}

func (ld *loader) fed() []int {
	out := make([]int, len(ld.sessions))
	for i, s := range ld.sessions {
		out[i] = s.fed
	}
	return out
}

// owned lists worker w's sessions in schedule order.
func (ld *loader) owned(w int) []*session {
	var out []*session
	for j := w; j < len(ld.p.order); j += workers {
		out = append(out, ld.sessions[ld.p.order[j]])
	}
	return out
}

// eachWorker runs fn once per worker concurrently and returns the first
// error.
func (ld *loader) eachWorker(fn func(w int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// worker holds one load goroutine's reusable request state.
type worker struct {
	c    *conn
	reqs []wire.PushRequest
	body []byte
}

// queue queues a push of the session's next n slots on the worker's
// connection. A push is acknowledged by an HTTP 200; any other status
// leaves its slots pending.
func (wk *worker) queue(s *session, n int) error {
	vals := s.take(n)
	wk.reqs = wk.reqs[:0]
	for _, v := range vals {
		wk.reqs = append(wk.reqs, wire.PushRequest{Lambda: v})
	}
	var err error
	if n == 1 {
		wk.body, err = wire.AppendPushRequest(wk.body[:0], &wk.reqs[0])
	} else {
		wk.body, err = wire.AppendPushRequests(wk.body[:0], wk.reqs)
	}
	if err != nil {
		return err
	}
	wk.c.queue("POST", s.path, wk.body)
	return nil
}

// setUp opens every session. A session with pre-age slots is opened from
// a client-held checkpoint holding them, which the daemon replays: the
// session ends up exactly as if the slots had been pushed, without
// encoding an advisory per slot into the responses.
func (ld *loader) setUp() error {
	return ld.eachWorker(func(w int) error {
		c := ld.conns[w]
		for _, s := range ld.owned(w) {
			req := serve.OpenRequest{ID: s.id, Alg: alg, Fleet: serve.FleetJSON{Scenario: ld.p.w.fleet, Seed: fleetSeed}}
			if n := ld.p.w.preAge; n > 0 {
				cp := &stream.Checkpoint{Alg: alg, Slots: make([]stream.SlotRecord, n)}
				for i, v := range s.take(n) {
					cp.Slots[i].Lambda = v
				}
				req.Checkpoint = cp
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			status, resp, err := c.do("POST", "/v1/sessions", body)
			if err != nil {
				return fmt.Errorf("open %s: %w", s.id, err)
			}
			if status != http.StatusCreated {
				return fmt.Errorf("open %s: HTTP %d: %s", s.id, status, resp)
			}
			s.ack(ld.p.w.preAge)
		}
		return nil
	})
}

// phase is what one load phase measured.
type phase struct {
	start     time.Time
	done      []time.Duration // per push: completion, from start
	lat       []time.Duration // per push: from due (open loop) or send (closed loop) to response
	late      []time.Duration // per push: how far behind its due time it was sent
	slots     int             // acknowledged slots
	attempted int
	failed    int
	elapsed   time.Duration
}

// slotsPerWindow splits the phase by completion time into n windows of
// length w and returns the slots acknowledged in each.
func (ph *phase) slotsPerWindow(w time.Duration, n, batch int) []int {
	out := make([]int, n)
	for i, at := range ph.done {
		if k := int(at / w); k < n && ph.lat[i] != refused {
			out[k] += batch
		}
	}
	return out
}

// add merges o into ph; done stays meaningful only between phases that
// share a start.
func (ph *phase) add(o *phase) {
	ph.done = append(ph.done, o.done...)
	ph.lat = append(ph.lat, o.lat...)
	ph.late = append(ph.late, o.late...)
	ph.slots += o.slots
	ph.attempted += o.attempted
	ph.failed += o.failed
}

// openLoop sends every session one push of `batch` slots per period,
// sessions spread evenly over the period in schedule order, for dur.
// Together they offer the workload's rate. Each push is timed from when it
// was due, so a stall also charges the pushes queued behind it.
func (ld *loader) openLoop(dur time.Duration) (*phase, error) {
	n := len(ld.sessions)
	period := float64(n*ld.p.w.batch) / ld.p.w.rate * float64(time.Second)
	return ld.run(func(w int, wk *worker, ph *phase) error {
		defer pace()()
		end := ph.start.Add(dur)
		own := ld.owned(w)
		for k := 0; ; k++ {
			for i, s := range own {
				j := w + i*workers
				due := ph.start.Add(time.Duration(float64(k)*period + float64(j)*period/float64(n)))
				if !due.Before(end) {
					return nil
				}
				sleepUntil(due)
				sent := time.Now()
				if err := ld.send(wk, s, ph, sent, due); err != nil {
					return err
				}
				ph.late = append(ph.late, sent.Sub(due))
			}
		}
	})
}

// pipeline is how many pushes a connection has in flight in the closed
// loop. With one, the loop measured how fast two processes on two virtual
// CPUs wake each other up, not how fast the daemon serves: the daemon
// idled between requests, and throughput moved by a third between
// identical runs. With a pipeline the daemon always has the next request
// queued.
const pipeline = 8

// closedLoop measures the daemon's capacity: each connection sends
// `pipeline` pushes, to as many of its sessions, in one write, and sends
// the next round once all of them are answered, cycling over the worker's
// sessions. A session is in at most one push of a round.
func (ld *loader) closedLoop(dur time.Duration) (*phase, error) {
	return ld.run(func(w int, wk *worker, ph *phase) error {
		end := ph.start.Add(dur)
		own := ld.owned(w)
		depth := min(pipeline, len(own))
		for next := 0; ; next += depth {
			sent := time.Now()
			if !sent.Before(end) {
				return nil
			}
			for k := range depth {
				s := own[(next+k)%len(own)]
				if err := wk.queue(s, ld.p.w.batch); err != nil {
					return fmt.Errorf("push %s: %w", s.id, err)
				}
			}
			if err := wk.c.flush(); err != nil {
				return fmt.Errorf("push: %w", err)
			}
			for k := range depth {
				if err := ld.recv(wk, own[(next+k)%len(own)], ph, sent, sent); err != nil {
					return err
				}
			}
		}
	})
}

// refused is the latency recorded for a push the server did not accept:
// it misses every latency limit.
const refused = time.Duration(math.MaxInt64)

// send pushes one batch, sent at `sent`, and records it (see recv).
func (ld *loader) send(wk *worker, s *session, ph *phase, sent, from time.Time) error {
	if err := wk.queue(s, ld.p.w.batch); err != nil {
		return fmt.Errorf("push %s: %w", s.id, err)
	}
	if err := wk.c.flush(); err != nil {
		return fmt.Errorf("push %s: %w", s.id, err)
	}
	return ld.recv(wk, s, ph, sent, from)
}

// recv reads the answer to a push to s sent at `sent` and records its
// outcome, its latency counted from `from`, and the client span when
// tracing. Only a transport failure is an error.
func (ld *loader) recv(wk *worker, s *session, ph *phase, sent, from time.Time) error {
	ph.attempted++
	status, _, err := wk.c.recv()
	done := time.Now()
	if err != nil {
		return fmt.Errorf("push %s: %w", s.id, err)
	}
	ph.done = append(ph.done, done.Sub(ph.start))
	if status == http.StatusOK {
		s.ack(ld.p.w.batch)
		ph.slots += ld.p.w.batch
		ph.lat = append(ph.lat, done.Sub(from))
	} else {
		ph.failed++
		ph.lat = append(ph.lat, refused)
	}
	ld.rec.span("client.push", s.id, sent, done)
	return nil
}

// run runs body on every worker with a phase starting now, and merges
// the workers' phases.
func (ld *loader) run(body func(w int, wk *worker, ph *phase) error) (*phase, error) {
	start := time.Now()
	phs := make([]phase, workers)
	for i := range phs {
		phs[i].start = start
	}
	err := ld.eachWorker(func(w int) error {
		return body(w, &worker{c: ld.conns[w]}, &phs[w])
	})
	total := &phase{start: start, elapsed: time.Since(start)}
	for i := range phs {
		total.add(&phs[i])
	}
	return total, err
}

// pace prepares the calling goroutine for sub-millisecond sleeps and
// returns the function that undoes it. Go's timers wake a parked
// goroutine up to ~1 ms late on Linux, more than a whole push takes, so
// open-loop workers sleep in nanosleep on a locked thread with a 1 µs
// timer slack instead (about 5 µs late). The thread is unlocked again
// before the goroutine exits, so it is never destroyed.
func pace() func() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// Without the 1 µs slack the sleeps are still kept, only about 50 µs
	// late, so a failure here is not worth failing the run over.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return runtime.UnlockOSThread
}

func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// health reads /v1/healthz.
func health(c *conn) (serve.Metrics, error) {
	var h struct {
		OK      bool          `json:"ok"`
		Metrics serve.Metrics `json:"metrics"`
	}
	status, body, err := c.do("GET", "/v1/healthz", nil)
	if err != nil {
		return h.Metrics, err
	}
	if status != http.StatusOK {
		return h.Metrics, fmt.Errorf("healthz: HTTP %d", status)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h.Metrics, fmt.Errorf("healthz: %w", err)
	}
	return h.Metrics, nil
}

// waitEvicted polls until the server holds no live session: the idle
// janitor has checkpointed every pre-aged session to the snapshot store.
func waitEvicted(c *conn, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, err := health(c)
		if err != nil {
			return err
		}
		if m.LiveSessions == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d sessions still live %v after pre-aging", m.LiveSessions, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// counters are the /metrics counters the workload assertions need.
type counters struct {
	memoHits, memoMisses, resumed, slots, walFsyncs uint64
}

func (c counters) sub(o counters) counters {
	return counters{c.memoHits - o.memoHits, c.memoMisses - o.memoMisses,
		c.resumed - o.resumed, c.slots - o.slots, c.walFsyncs - o.walFsyncs}
}

func (c counters) memoHitRatio() float64 { return ratio(c.memoHits, c.memoHits+c.memoMisses) }

// scrape reads the counters from GET /metrics.
func scrape(c *conn) (counters, error) {
	status, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return counters{}, err
	}
	if status != http.StatusOK {
		return counters{}, fmt.Errorf("metrics: HTTP %d", status)
	}
	var out counters
	fields := map[string]*uint64{
		"rightsized_solver_memo_hits_total":   &out.memoHits,
		"rightsized_solver_memo_misses_total": &out.memoMisses,
		"rightsized_sessions_resumed_total":   &out.resumed,
		"rightsized_slots_pushed_total":       &out.slots,
		"rightsized_wal_fsyncs_total":         &out.walFsyncs,
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, value, ok := bytes.Cut(sc.Bytes(), []byte(" "))
		if !ok || len(name) == 0 || name[0] == '#' {
			continue
		}
		if dst := fields[string(name)]; dst != nil {
			if *dst, err = strconv.ParseUint(string(value), 10, 64); err != nil {
				return counters{}, fmt.Errorf("metrics: %s: %w", name, err)
			}
		}
	}
	return out, nil
}
