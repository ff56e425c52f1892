package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Set-up is repeated, and setup_s is the median of the set-ups' times,
// each scaled by the probe's slowdown over it (see probe.go): at least
// minSetups times, and up to maxSetups while the set-ups so far took
// under setupBudget. Only the last set-up is measured further.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// runDaemon is the untraced run: the workload against a rightsized
// process, reporting the end-to-end metrics.
func runDaemon(bin string, w workload, seed int64, run time.Duration, work string) (*result, error) {
	p, err := newPlan(w, seed)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(work, "rightsized-"+w.name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	pr := startProbe()
	defer pr.close()

	var d *daemon
	var ld *loader
	stop := func() {
		if d != nil {
			ld.close()
			d.stop()
			d = nil
		}
	}
	defer stop()
	type interval struct{ from, to time.Time }
	var setups []interval
	var setupCPU []float64
	for total := time.Duration(0); len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget); {
		stop()
		start := time.Now()
		d, err = startDaemon(bin, w, filepath.Join(work, "tmp", fmt.Sprintf("%s-%d", w.name, len(setups))), logf)
		if err != nil {
			return nil, err
		}
		ld = newLoader(p, d.addr, nil)
		if err := ld.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		end := time.Now()
		cpu, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		total += end.Sub(start)
		setups = append(setups, interval{start, end})
		setupCPU = append(setupCPU, cpu.Seconds())
	}
	c := ld.conns[0]
	if w.evict > 0 {
		if err := waitEvicted(c, time.Minute); err != nil {
			return nil, err
		}
	}

	// Resident memory is read in the open loop, where every run has fed
	// the same number of slots (a session's memory grows with its slots);
	// CPU time per slot in the closed loop, where the daemon never idles,
	// so a slot's cost does not depend on how often the daemon sleeps and
	// is woken. hourly-resume has only its open loop, and it gives both.
	// The probe pauses while latency is measured, except on hourly-resume,
	// where the open loop is also the phase CPU time is read in.
	warm, openDur, closedDur := w.phases(run)
	traffic := &phase{}
	var before counters
	var open, closed *phase
	var openS, closedS []sample
	measure := func(loop func(time.Duration) (*phase, error), dur time.Duration, into *[]sample) (*phase, error) {
		stop := d.sample(sampleEvery)
		ph, err := loop(dur)
		s, serr := stop()
		*into = s
		if err == nil {
			err = serr
		}
		return ph, err
	}
	openPhases := func() error {
		if warm > 0 {
			ph, err := ld.openLoop(warm)
			if err != nil {
				return err
			}
			traffic.add(ph)
		}
		if before, err = scrape(c); err != nil {
			return err
		}
		open, err = measure(ld.openLoop, openDur, &openS)
		return err
	}
	if closedDur == 0 {
		err = openPhases()
	} else if err = pr.pause(openPhases); err == nil {
		closed, err = measure(ld.closedLoop, closedDur, &closedS)
	}
	if err != nil {
		return nil, err
	}
	measured := &phase{}
	measured.add(open)
	cpuPh, cpuS := open, openS
	if closed != nil {
		measured.add(closed)
		cpuPh, cpuS = closed, closedS
	}
	traffic.add(measured)
	after, err := scrape(c)
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)
	r := &result{Workload: w.name, Attempted: traffic.attempted, Failed: traffic.failed,
		Problems: gate(c, p, ld.fed(), delta)}

	setupS, setupWall := make([]float64, len(setups)), make([]float64, len(setups))
	for i, s := range setups {
		setupWall[i] = s.to.Sub(s.from).Seconds()
		setupS[i] = setupWall[i] / pr.slowdown(s.from, s.to)
	}
	cpu, err := cpuPerSlot(cpuS, cpuPh, w.batch, pr.slowdown)
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	rawCPU, _ := cpuPerSlot(cpuS, cpuPh, w.batch, func(time.Time, time.Time) float64 { return 1 })
	rss := make([]float64, len(openS))
	for i, s := range openS {
		rss[i] = s.rss
	}
	r.Metrics = values(endToEnd, map[string]float64{
		"setup_s":                median(setupS),
		"daemon_cpu_us_per_slot": cpu,
		"daemon_rss_mb":          median(rss),
	})
	// Diagnostics: push latency and throughput were end-to-end metrics
	// until their ten-run spreads exceeded the largest bound the benchmark
	// allows; bench/README.md has the numbers.
	lat := in(open.lat, time.Millisecond)
	r.Extra = map[string]metric{
		"setups":                     {float64(len(setups)), "count"},
		"setup_wall_s":               {median(setupWall), "s"},
		"setup_cpu_s":                {median(setupCPU), "s"},
		"probe.slowdown":             {pr.slowdown(cpuPh.start, cpuPh.start.Add(cpuPh.elapsed)), "ratio"},
		"daemon_cpu_us_per_slot.raw": {rawCPU, "us"},
		"push_samples":               {float64(len(lat)), "count"},
		"push_p50_ms":                {pct(lat, 0.5), "ms"},
		"push_p90_ms":                {pct(lat, 0.9), "ms"},
		"open_served_slots_per_s":    {float64(open.slots) / open.elapsed.Seconds(), "slots/s"},
		"loadgen.late_ms.p99":        {pct(in(open.late, time.Millisecond), 0.99), "ms"},
		"solver.memo_hit_ratio":      {delta.memoHitRatio(), "ratio"},
		"serve.resumes_per_push":     {ratio(delta.resumed, uint64(measured.attempted)), "ratio"},
		"wal.fsyncs_per_slot":        {ratio(delta.walFsyncs, delta.slots), "count"},
	}
	// The highest percentile with at least minBeyond samples beyond it.
	if p99, err := tail(lat, 0.99); err == nil {
		r.Extra["push_p99_ms"] = metric{p99, "ms"}
	}
	if closed != nil {
		r.Extra["throughput_slots_per_s"] = metric{bestWindow(closed, closedDur, w.batch), "slots/s"}
	}
	return r, nil
}

// sampleEvery is how often the daemon's CPU time and resident memory are
// read. A window holds many garbage collections on every workload, so
// the median window still pays its share of them.
const sampleEvery = time.Second

// cpuPerSlot is the daemon's CPU time per slot served, in microseconds,
// in the median window between two samples, each window's time divided
// by slowdown over it. Slots count when their push completed in the
// window.
func cpuPerSlot(samples []sample, ph *phase, batch int, slowdown func(from, to time.Time) float64) (float64, error) {
	var per []float64
	for k := 1; k < len(samples); k++ {
		from, to := samples[k-1].at.Sub(ph.start), samples[k].at.Sub(ph.start)
		if to-from < sampleEvery/2 {
			continue // the short window the last reading closes
		}
		slots := 0
		for i, at := range ph.done {
			if at >= from && at < to && ph.lat[i] != refused {
				slots += batch
			}
		}
		if slots > 0 {
			cpu := float64(samples[k].cpu-samples[k-1].cpu) / float64(time.Microsecond)
			per = append(per, cpu/float64(slots)/slowdown(samples[k-1].at, samples[k].at))
		}
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("no sampling window served a slot")
	}
	return median(per), nil
}

// closedWindow is the window bestWindow reads throughput in.
const closedWindow = time.Second / 2

// bestWindow is the closed loop's throughput in its best window: other
// tenants of a shared machine only ever slow the daemon down, so the best
// half-second is the least disturbed reading of its capacity.
func bestWindow(ph *phase, dur time.Duration, batch int) float64 {
	return float64(slices.Max(ph.slotsPerWindow(closedWindow, int(dur/closedWindow), batch))) / closedWindow.Seconds()
}

// tracedPasses alternate untraced and traced open-loop passes, so the
// tracing overhead is measured on the same system in the same state.
var tracedPasses = []bool{false, true, false, true}

// runTraced is the traced run: the workload against an in-process
// manager and handler on a loopback listener, with spans recorded around
// the client, the handler, the snapshot store and the WAL files, followed
// by the ladder. It reports the per-layer metrics.
func runTraced(w workload, seed int64, run time.Duration, work, spansPath string) (*result, error) {
	p, err := newPlan(w, seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(work, "tmp", w.name+"-traced")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := newRecorder()
	sys, err := startInproc(w, dir, rec)
	if err != nil {
		return nil, err
	}
	ld := newLoader(p, sys.addr, rec)
	r, err := tracedLoad(ld, w, run)
	ld.close()
	if cerr := sys.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the in-process server: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	lad, layers, err := ladder(w, p, dir)
	if err != nil {
		return nil, err
	}
	for name, v := range lad {
		r.vals[name] = v
	}
	link(rec.spans)
	spanMetrics(rec.spans, layers, r)
	r.Metrics = values(perLayer, r.vals)
	if spansPath != "" {
		if err := writeSpans(spansPath, rec.spans); err != nil {
			return nil, err
		}
	}
	return &r.result, nil
}

// tracedResult is a traced run's result while its values are gathered.
type tracedResult struct {
	result
	vals   map[string]float64
	traced *phase
}

func tracedLoad(ld *loader, w workload, run time.Duration) (*tracedResult, error) {
	c := ld.conns[0]
	if err := ld.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if w.evict > 0 {
		if err := waitEvicted(c, time.Minute); err != nil {
			return nil, err
		}
	}
	warm, _, _ := w.phases(run)
	traffic, plain, traced := &phase{}, &phase{}, &phase{}
	if warm > 0 {
		ph, err := ld.openLoop(warm)
		if err != nil {
			return nil, err
		}
		traffic.add(ph)
	}
	before, err := scrape(c)
	if err != nil {
		return nil, err
	}
	for _, on := range tracedPasses {
		ld.rec.on.Store(on)
		ph, err := ld.openLoop(run / time.Duration(len(tracedPasses)))
		ld.rec.on.Store(false)
		if err != nil {
			return nil, err
		}
		traffic.add(ph)
		if on {
			traced.add(ph)
		} else {
			plain.add(ph)
		}
	}
	after, err := scrape(c)
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)
	r := &tracedResult{
		result: result{Workload: w.name, Attempted: traffic.attempted, Failed: traffic.failed,
			Problems: gate(c, ld.p, ld.fed(), delta)},
		traced: traced,
	}
	plainLat, tracedLat := in(plain.lat, time.Microsecond), in(traced.lat, time.Microsecond)
	r.vals = map[string]float64{
		"solver.memo_hit_ratio":  delta.memoHitRatio(),
		"serve.resumes_per_push": ratio(delta.resumed, uint64(plain.attempted+traced.attempted)),
		"loadgen.late_ms.p99":    pct(in(plain.late, time.Millisecond), 0.99),
		"trace.overhead_pct":     (pct(tracedLat, 0.5)/pct(plainLat, 0.5) - 1) * 100,
	}
	r.Extra = map[string]metric{
		"push_samples.untraced": {float64(len(plainLat)), "count"},
		"push_samples.traced":   {float64(len(tracedLat)), "count"},
		"push_p50_us.untraced":  {pct(plainLat, 0.5), "us"},
		"push_p50_us.traced":    {pct(tracedLat, 0.5), "us"},
	}
	return r, nil
}

// spanMetrics derives the span-based per-layer metrics from the
// traffic's spans. The WAL and store timings of a workload whose traffic
// does not reach that layer come from the layer rung's spans instead;
// the counts stay the traffic's.
func spanMetrics(spans, layers []span, r *tracedResult) {
	dur := map[string][]time.Duration{}
	self := map[string][]time.Duration{}
	var snapBytes int64
	for i := range spans {
		s := &spans[i]
		dur[s.Name] = append(dur[s.Name], time.Duration(s.End-s.Start))
		self[s.Name] = append(self[s.Name], time.Duration(s.Self))
		snapBytes += s.Bytes
	}
	rung := map[string][]time.Duration{}
	for _, s := range layers {
		rung[s.Name] = append(rung[s.Name], time.Duration(s.End-s.Start))
	}
	timed := func(name string, unit time.Duration) []float64 {
		if ds := dur[name]; len(ds) > 0 {
			return in(ds, unit)
		}
		return in(rung[name], unit)
	}
	us := func(name string, m map[string][]time.Duration) []float64 { return in(m[name], time.Microsecond) }
	slots := uint64(r.traced.slots)
	saves := len(dur["store.save"])
	v := r.vals
	v["net.rtt_us.p50"] = pct(us("client.push", dur), 0.5)
	v["net.rtt_us.p99"] = pct(us("client.push", dur), 0.99)
	v["net.self_us.p50"] = pct(us("client.push", self), 0.5)
	v["serve.http_us.p50"] = pct(us("serve.http", dur), 0.5)
	v["serve.http_us.p99"] = pct(us("serve.http", dur), 0.99)
	v["serve.http_self_us.p50"] = pct(us("serve.http", self), 0.5)
	v["wal.write_us.p50"] = pct(timed("wal.write", time.Microsecond), 0.5)
	v["wal.writes_per_slot"] = ratio(uint64(len(dur["wal.write"])), slots)
	v["wal.sync_us.p50"] = pct(timed("wal.sync", time.Microsecond), 0.5)
	v["wal.sync_us.p99"] = pct(timed("wal.sync", time.Microsecond), 0.99)
	v["wal.syncs_per_slot"] = ratio(uint64(len(dur["wal.sync"])), slots)
	v["store.load_ms.p50"] = pct(timed("store.load", time.Millisecond), 0.5)
	v["store.load_ms.p99"] = pct(timed("store.load", time.Millisecond), 0.99)
	v["store.loads"] = float64(len(dur["store.load"]))
	v["store.save_ms.p50"] = pct(timed("store.save", time.Millisecond), 0.5)
	v["store.saves"] = float64(saves)
	v["store.snapshot_kb.mean"] = 0
	if saves > 0 {
		v["store.snapshot_kb.mean"] = float64(snapBytes) / 1024 / float64(saves)
	}
	for name, ds := range dur {
		r.Extra["spans."+name] = metric{float64(len(ds)), "count"}
	}
}
