package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestGeneratorsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newPlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7)
		c, _ := newPlan(w, 8)
		if !slices.Equal(a.order, b.order) || !slices.Equal(a.phase, b.phase) {
			t.Errorf("%s: schedule differs between two plans of one seed", w.name)
		}
		differs := !slices.Equal(a.order, c.order)
		for i := range a.ids {
			ga, gb, gc := a.gen(i), b.gen(i), c.gen(i)
			for k := range 100 {
				va, vb, vc := ga.next(), gb.next(), gc.next()
				if va != vb {
					t.Fatalf("%s: session %d slot %d: %v then %v from one seed", w.name, i, k, va, vb)
				}
				differs = differs || va != vc
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
	}
}

func TestFreshDemandHasNoRepeatedValues(t *testing.T) {
	w, _ := lookupWorkload("fresh-demand")
	p, err := newPlan(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	fed := make([]int, len(p.ids))
	for i := range fed {
		fed[i] = 5000
	}
	if r := p.repeatedShare(fed); r != 0 {
		t.Errorf("repeated share %v, want 0", r)
	}
	sw, _ := lookupWorkload("steady-hit")
	sp, _ := newPlan(sw, 1)
	if r := sp.repeatedShare([]int{480}); r < 0.9 {
		t.Errorf("steady-hit repeated share %v: the check does not see repeats", r)
	}
}

func TestQuantile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		n         int
		q         float64
		v         float64
		beyond    int
		supported bool
	}{
		{1000, 0.5, 500, 500, true},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{100, 0.9, 90, 10, true},
		{1, 0.99, 1, 0, false},
	} {
		v, beyond := quantile(xs[:c.n], c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(1..%d, %v) = %v with %d beyond, want %v with %d", c.n, c.q, v, beyond, c.v, c.beyond)
		}
		if _, err := tail(xs[:c.n], c.q); (err == nil) != c.supported {
			t.Errorf("tail(1..%d, %v): error %v, want supported=%v", c.n, c.q, err, c.supported)
		}
	}
	if pct(nil, 0.5) != 0 {
		t.Error("pct of no samples is not 0")
	}
}

func TestLinkSelfTime(t *testing.T) {
	spans := []span{
		{Name: "wal.sync", Key: "a", Start: 30, End: 60},
		{Name: "client.push", Key: "a", Start: 0, End: 100},
		{Name: "serve.http", Key: "a", Start: 10, End: 90},
		{Name: "wal.write", Key: "a", Start: 20, End: 30},
		{Name: "client.push", Key: "b", Start: 15, End: 40}, // another session, overlapping in time
		{Name: "client.push", Key: "a", Start: 120, End: 150},
		{Name: "store.save", Key: "a", Start: 200, End: 260}, // the janitor: no request around it
	}
	link(spans)
	want := []struct {
		parent, trace int
		self          int64
	}{
		{2, 1, 30}, // wal.sync
		{-1, 1, 20},
		{1, 1, 40}, // serve.http: 80 minus 40 of WAL calls
		{2, 1, 10},
		{-1, 4, 25},
		{-1, 5, 30},
		{-1, 6, 60},
	}
	for i, w := range want {
		s := spans[i]
		if s.Parent != w.parent || s.Trace != w.trace || s.Self != w.self {
			t.Errorf("span %d (%s): parent %d trace %d self %d, want %d %d %d",
				i, s.Name, s.Parent, s.Trace, s.Self, w.parent, w.trace, w.self)
		}
	}
}

func TestCPUPerSlotMedianWindow(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(d time.Duration) time.Time { return start.Add(d) }
	s := sampleEvery
	// Ten pushes of two slots complete in each full window; one push of
	// the third window is refused.
	samples := []sample{
		{at: at(0), cpu: 0},
		{at: at(s), cpu: 100 * time.Microsecond},      // 100 µs / 20 slots
		{at: at(2 * s), cpu: 1100 * time.Microsecond}, // 1000 µs / 20 slots: a slow stretch
		{at: at(3 * s), cpu: 1300 * time.Microsecond}, // 200 µs / 18 slots
		{at: at(3*s + s/4), cpu: 9 * time.Second},     // a short last window: skipped
	}
	ph := &phase{start: start}
	for k := range 3 {
		for i := range 10 {
			ph.done = append(ph.done, time.Duration(k)*s+time.Duration(i)*s/10)
			ph.lat = append(ph.lat, time.Millisecond)
		}
	}
	ph.lat[25] = refused
	ph.done = append(ph.done, 3*s+s/8)
	ph.lat = append(ph.lat, time.Millisecond)
	same := func(time.Time, time.Time) float64 { return 1 }
	got, err := cpuPerSlot(samples, ph, 2, same)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200.0 / 18; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpuPerSlot = %v, want the median window's %v", got, want)
	}
	// The slow stretch, scaled by its slowdown, becomes the median.
	slow := func(from, _ time.Time) float64 {
		if from.Equal(at(s)) {
			return 8
		}
		return 1
	}
	if got, _ := cpuPerSlot(samples, ph, 2, slow); math.Abs(got-50.0/8) > 1e-9 {
		t.Errorf("cpuPerSlot with a slowdown of 8 over the slow window = %v, want %v", got, 50.0/8)
	}
	if _, err := cpuPerSlot(samples[:1], ph, 1, same); err == nil {
		t.Error("no window: want an error")
	}
}

func TestProbeSlowdown(t *testing.T) {
	start := time.Unix(0, 0)
	p := &probe{}
	if got := p.slowdown(start, start.Add(time.Second)); got != 1 {
		t.Errorf("slowdown without rounds = %v, want 1", got)
	}
	// One round every probeEvery: nominal for the first second, twice as
	// long for the next.
	for i := range 2 * int(time.Second/probeEvery) {
		d := refNominal
		if i >= int(time.Second/probeEvery) {
			d = 2 * refNominal
		}
		p.rounds = append(p.rounds, refRound{at: start.Add(time.Duration(i) * probeEvery), dur: d})
	}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, time.Second - time.Millisecond, 1},
		{time.Second, 2 * time.Second, 2},
		// Too short to hold minProbeRounds rounds: widened to the rounds
		// around it, four slow to two fast.
		{time.Second + probeEvery/2, time.Second + probeEvery/2, 2},
	} {
		if got := p.slowdown(start.Add(c.from), start.Add(c.to)); got != c.want {
			t.Errorf("slowdown(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestProbeRuns(t *testing.T) {
	p := startProbe()
	time.Sleep(4 * probeEvery)
	var paused int
	_ = p.pause(func() error {
		p.mu.Lock()
		paused = len(p.rounds)
		p.mu.Unlock()
		time.Sleep(4 * probeEvery)
		return nil
	})
	p.close()
	if paused == 0 {
		t.Fatal("no reference round ran")
	}
	if n := len(p.rounds); n > paused+1 {
		t.Errorf("%d rounds ran while paused", n-paused)
	}
	for _, r := range p.rounds {
		if r.dur <= 0 {
			t.Errorf("round took %v", r.dur)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark's callers read, in step with what the code reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		key  string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s has %d metrics, the code reports %d", c.key, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d] = %s %s, the code reports %s %s", c.key, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// tiny shrinks a workload to a smoke-test scale: four sessions, short
// pre-aging, a ladder of a tenth the slots, and for hourly-resume a 40 ms
// idle eviction with pushes every 300 ms, so every push still finds its
// session evicted.
func tiny(w workload) workload {
	w.rate *= 4 / float64(w.sessions)
	w.sessions = 4
	w.preAge = min(w.preAge, 200)
	w.ladder /= 10
	if w.evict > 0 {
		w.evict = 40 * time.Millisecond
		w.rate = float64(w.sessions*w.batch) / 0.3
	}
	return w
}

// TestPipelinedClosedLoop drives the closed loop, which pipelines its
// pushes, against an in-process server. Every push must be answered and
// matched to its own session: the gate compares the sessions' state with
// the in-process reference bit for bit.
func TestPipelinedClosedLoop(t *testing.T) {
	for _, name := range []string{"steady-hit", "fresh-demand"} {
		full, _ := lookupWorkload(name)
		w := tiny(full)
		t.Run(name, func(t *testing.T) {
			p, err := newPlan(w, 5)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := startInproc(w, t.TempDir(), newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			defer sys.close()
			ld := newLoader(p, sys.addr, nil)
			defer ld.close()
			if err := ld.setUp(); err != nil {
				t.Fatal(err)
			}
			c := ld.conns[0]
			before, err := scrape(c)
			if err != nil {
				t.Fatal(err)
			}
			ph, err := ld.closedLoop(300 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if ph.attempted < 2*workers || ph.failed > 0 {
				t.Fatalf("%d pushes attempted, %d failed", ph.attempted, ph.failed)
			}
			after, err := scrape(c)
			if err != nil {
				t.Fatal(err)
			}
			if problems := gate(c, p, ld.fed(), after.sub(before)); len(problems) > 0 {
				t.Fatalf("gate: %q", problems)
			}
		})
	}
}

// TestSmoke runs every workload, shrunk, through the traced in-process
// run: set-up, load, the correctness gate, the ladder and the span
// metrics.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			run := 600 * time.Millisecond
			if w.evict > 0 {
				run = 1600 * time.Millisecond
			}
			r, err := runTraced(w, 3, run, work, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Problems) > 0 || r.Failed > 0 {
				t.Fatalf("problems %q, %d of %d pushes failed", r.Problems, r.Failed, r.Attempted)
			}
			m := r.Metrics
			// Every timing has a reading, also of a layer the workload's
			// traffic does not reach (the layer rung's).
			for _, name := range []string{"net.rtt_us.p50", "serve.http_us.p50", "ladder.handler.ns_per_req",
				"ladder.manager.ns_per_slot", "ladder.stream.ns_per_slot", "ladder.resume.ms", "sse.deliver_us.p50",
				"wal.write_us.p50", "wal.sync_us.p50", "wal.sync_us.p99", "store.load_ms.p50", "store.load_ms.p99",
				"store.save_ms.p50"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name].Value)
				}
			}
			if w.wal && m["wal.syncs_per_slot"].Value < 1 {
				t.Errorf("wal.syncs_per_slot = %v, want >= 1", m["wal.syncs_per_slot"].Value)
			}
			if w.evict > 0 && (m["store.loads"].Value == 0 || m["serve.resumes_per_push"].Value < 0.9) {
				t.Errorf("store.loads = %v, serve.resumes_per_push = %v: pushes did not resume",
					m["store.loads"].Value, m["serve.resumes_per_push"].Value)
			}
		})
	}
}
