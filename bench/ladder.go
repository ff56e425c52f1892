package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The ladder re-runs a workload's slot sequence through each public entry
// point a push crosses, one at a time and in this process, so the rungs
// subtract: stream.Session.Push (with and without prefix-OPT telemetry),
// serve.Manager.Push, the HTTP handler, and the wire codec on its own.
// More rungs time a resume (Evict, then Push), SSE delivery
// (Manager.Subscribe), and the WAL and snapshot store (layerRung). The
// per-slot rungs read time, heap allocations and bytes from
// runtime.MemStats around one timed loop, after an untimed set-up that
// ages its session as the workload's set-up does.

// cost is one timed loop's time, heap allocations and bytes per unit.
type cost struct{ ns, allocs, bytes float64 }

func measure(n int, f func() error) (cost, error) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	err := f()
	el := time.Since(start)
	runtime.ReadMemStats(&b)
	return cost{
		ns:     float64(el.Nanoseconds()) / float64(n),
		allocs: float64(b.Mallocs-a.Mallocs) / float64(n),
		bytes:  float64(b.TotalAlloc-a.TotalAlloc) / float64(n),
	}, err
}

// ladder runs every rung and returns its metrics and the layer rung's
// spans. Generators past the plan's sessions give each rung slot values
// the load phases did not send, so fresh-demand's rungs miss the memo as
// its traffic does.
func ladder(w workload, p *plan, dir string) (map[string]float64, []span, error) {
	out := map[string]float64{}
	n := w.ladder
	unseen := len(p.ids)

	for _, r := range []struct {
		name string
		opts stream.Options
	}{{"stream", stream.Options{}}, {"stream_noopt", stream.Options{DisableOpt: true}}} {
		unseen++
		s, err := engine.OpenSession(alg, p.types, r.opts)
		if err != nil {
			return nil, nil, err
		}
		g := p.gen(unseen)
		var adv stream.Advisory
		for range w.preAge {
			if _, err := s.Push(model.SlotInput{Lambda: g.next()}, &adv); err != nil {
				return nil, nil, err
			}
		}
		vals := take(g, n)
		c, err := measure(n, func() error {
			for _, v := range vals {
				if _, err := s.Push(model.SlotInput{Lambda: v}, &adv); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s rung: %w", r.name, err)
		}
		out["ladder."+r.name+".ns_per_slot"] = c.ns
		out["ladder."+r.name+".allocs_per_slot"] = c.allocs
		out["ladder."+r.name+".bytes_per_slot"] = c.bytes
	}

	// Manager, handler and codec share one manager and one session.
	opts := serve.Options{}
	if w.wal {
		opts.WALDir = filepath.Join(dir, "ladder-wal")
		if err := os.MkdirAll(opts.WALDir, 0o755); err != nil {
			return nil, nil, err
		}
		opts.WALSync = wal.SyncAlways
	}
	m := serve.NewManager(opts)
	defer m.Close()
	unseen++
	g := p.gen(unseen)
	if err := openAged(m, "ladder", p, g, w.preAge); err != nil {
		return nil, nil, err
	}
	reqs := batches(take(g, n), w.batch)
	// The results feed the encode rung: single pushes into one
	// preallocated slice, so the loop itself allocates nothing.
	single := make([]serve.PushResult, len(reqs))
	results := make([][]serve.PushResult, len(reqs))
	c, err := measure(n, func() error {
		var err error
		for i, b := range reqs {
			if w.batch == 1 {
				single[i], err = m.Push("ladder", b[0])
			} else {
				results[i], err = m.PushBatch("ladder", b)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("manager rung: %w", err)
	}
	out["ladder.manager.ns_per_slot"] = c.ns
	out["ladder.manager.allocs_per_slot"] = c.allocs

	bodies, err := encodeBodies(batches(take(g, n), w.batch))
	if err != nil {
		return nil, nil, err
	}
	h := serve.NewHandler(m)
	rd := bytes.NewReader(nil)
	body := io.NopCloser(rd)
	req, err := http.NewRequest("POST", "/v1/sessions/ladder/push", body)
	if err != nil {
		return nil, nil, err
	}
	rw := &discardWriter{header: make(http.Header, 4)}
	c, err = measure(len(bodies), func() error {
		for _, b := range bodies {
			rd.Reset(b)
			req.Body, req.ContentLength = body, int64(len(b))
			rw.status = 0
			clear(rw.header)
			h.ServeHTTP(rw, req)
			if rw.status != http.StatusOK {
				return fmt.Errorf("HTTP %d", rw.status)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("handler rung: %w", err)
	}
	out["ladder.handler.ns_per_req"] = c.ns
	out["ladder.handler.allocs_per_req"] = c.allocs

	var one serve.PushRequest
	var many []serve.PushRequest
	c, err = measure(len(bodies), func() error {
		for _, b := range bodies {
			var err error
			if w.batch == 1 {
				err = wire.DecodePushRequest(b, &one)
			} else {
				err = wire.DecodePushRequests(b, &many)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("decode rung: %w", err)
	}
	out["ladder.wire.decode_ns_per_req"] = c.ns
	var buf []byte
	c, err = measure(len(reqs), func() error {
		for i := range reqs {
			var err error
			if w.batch == 1 {
				buf, err = wire.AppendPushResult(buf[:0], &single[i])
			} else {
				buf, err = wire.AppendPushResults(buf[:0], results[i])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("encode rung: %w", err)
	}
	out["ladder.wire.encode_ns_per_req"] = c.ns

	unseen++
	if out["ladder.resume.ms"], err = resumeRung(w, p, p.gen(unseen), dir); err != nil {
		return nil, nil, fmt.Errorf("resume rung: %w", err)
	}
	unseen++
	deliver, err := sseRung(w, p, p.gen(unseen))
	if err != nil {
		return nil, nil, fmt.Errorf("sse rung: %w", err)
	}
	out["sse.deliver_us.p50"] = pct(deliver, 0.5)
	out["sse.deliver_us.p99"] = pct(deliver, 0.99)
	unseen++
	layers, err := layerRung(w, p, p.gen(unseen), dir)
	if err != nil {
		return nil, nil, fmt.Errorf("layer rung: %w", err)
	}
	return out, layers, nil
}

// The layer rung's session takes layerPushes pushes, each logged with an
// fsync, then is evicted to the snapshot store and resumed layerResumes
// times.
const (
	layerPushes  = 50
	layerResumes = 10
)

// layerRung drives the WAL and the snapshot store with the workload's
// slots, so that their timings have a reading on every workload, also
// where the workload's traffic reaches neither: one aged session on a
// manager that logs every push with an fsync and keeps snapshots in a
// DirStore. It returns the spans of those calls.
func layerRung(w workload, p *plan, g *slotGen, dir string) ([]span, error) {
	rec := newRecorder()
	snaps := filepath.Join(dir, "layer-snapshots")
	ds, err := serve.NewDirStore(snaps)
	if err != nil {
		return nil, err
	}
	walDir := filepath.Join(dir, "layer-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	m := serve.NewManager(serve.Options{Store: tracedStore{DirStore: ds, dir: snaps, rec: rec},
		WALDir: walDir, WALSync: wal.SyncAlways, WALOpenFile: rec.openWAL})
	defer m.Close()
	if err := openAged(m, "layer", p, g, w.preAge); err != nil {
		return nil, err
	}
	rec.on.Store(true)
	defer rec.on.Store(false)
	for range layerPushes {
		if _, err := m.Push("layer", serve.PushRequest{Lambda: g.next()}); err != nil {
			return nil, err
		}
	}
	for range layerResumes {
		if err := m.Evict("layer"); err != nil {
			return nil, err
		}
		if _, err := m.Push("layer", serve.PushRequest{Lambda: g.next()}); err != nil {
			return nil, err
		}
	}
	return rec.spans, nil
}

// resumeRung evicts an aged session and times the push that resumes it,
// through the workload's kind of store; it returns the median in ms.
func resumeRung(w workload, p *plan, g *slotGen, dir string) (float64, error) {
	opts := serve.Options{}
	if w.evict > 0 {
		ds, err := serve.NewDirStore(filepath.Join(dir, "ladder-snapshots"))
		if err != nil {
			return 0, err
		}
		opts.Store = ds
	}
	m := serve.NewManager(opts)
	defer m.Close()
	if err := openAged(m, "resume", p, g, max(w.preAge, len(p.trace))); err != nil {
		return 0, err
	}
	const rounds = 20
	times := make([]float64, rounds)
	for i := range times {
		if err := m.Evict("resume"); err != nil {
			return 0, err
		}
		req := serve.PushRequest{Lambda: g.next()}
		start := time.Now()
		if _, err := m.Push("resume", req); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(times), nil
}

// sseRung subscribes to one aged session and times each advisory from
// the start of its push to its receipt by a consumer goroutine. The next
// push waits for the receipt, as a live stream's consumer keeps up with
// a session's pushes; a backlog would time the queue instead (and past
// the subscription buffer, disconnect the consumer). It returns the
// sorted delivery times in µs.
func sseRung(w workload, p *plan, g *slotGen) ([]float64, error) {
	m := serve.NewManager(serve.Options{})
	defer m.Close()
	if err := openAged(m, "sse", p, g, w.preAge); err != nil {
		return nil, err
	}
	sub, err := m.Subscribe("sse")
	if err != nil {
		return nil, err
	}
	n := 2000
	if w.fresh {
		n = 1000
	}
	got := make(chan time.Time)
	go func() {
		defer close(got)
		for range sub.C {
			got <- time.Now()
		}
	}()
	out := make([]time.Duration, 0, n)
	var perr error
	for range n {
		req := serve.PushRequest{Lambda: g.next()}
		sent := time.Now()
		if _, perr = m.Push("sse", req); perr != nil {
			break
		}
		at, ok := <-got
		if !ok {
			perr = fmt.Errorf("subscription ended: %s", sub.Reason())
			break
		}
		out = append(out, at.Sub(sent))
	}
	m.Unsubscribe(sub)
	for range got {
	}
	if perr != nil {
		return nil, perr
	}
	return in(out, time.Microsecond), nil
}

// openAged opens a session on m and feeds it age slots from g.
func openAged(m *serve.Manager, id string, p *plan, g *slotGen, age int) error {
	if _, err := m.Open(serve.OpenRequest{ID: id, Alg: alg,
		Fleet: serve.FleetJSON{Scenario: p.w.fleet, Seed: fleetSeed}}); err != nil {
		return err
	}
	for _, b := range batches(take(g, age), 500) {
		if _, err := m.PushBatch(id, b); err != nil {
			return err
		}
	}
	return nil
}

func take(g *slotGen, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// batches groups slot values into push requests of size b.
func batches(vals []float64, b int) [][]serve.PushRequest {
	var out [][]serve.PushRequest
	for len(vals) > 0 {
		k := min(b, len(vals))
		reqs := make([]serve.PushRequest, k)
		for i, v := range vals[:k] {
			reqs[i].Lambda = v
		}
		out = append(out, reqs)
		vals = vals[k:]
	}
	return out
}

// encodeBodies renders push bodies as the client sends them: one object
// for a single slot, an array for a batch.
func encodeBodies(reqs [][]serve.PushRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if len(r) == 1 {
			out[i], err = wire.AppendPushRequest(nil, &r[0])
		} else {
			out[i], err = wire.AppendPushRequests(nil, r)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
