package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/perfref"
	"repro/internal/promlint"
)

// scrapeMetrics GETs /metrics and returns the exposition body after
// asserting the content type and a clean promlint pass.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := promlint.Lint(strings.NewReader(string(body))); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	return string(body)
}

// promValue pulls one sample's value out of an exposition; series is
// the full name as printed, labels included (e.g. `x{shard="0"}`).
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not in exposition:\n%s", series, body)
	return 0
}

// /metrics must lint clean and agree with /v1/healthz while the server
// is quiescent: same counters, gauge equal to live_sessions, shard
// gauges summing to it, histogram _count equal to push observations.
func TestPromExposition(t *testing.T) {
	m := NewManager(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}

	// Traffic that moves every counter family: two sessions, pushes
	// (single and batch), a checkpoint-evict, a resume, a delete.
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "a", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "b", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	for _, lam := range quickstartTrace(t)[:6] {
		cl.mustDo("POST", "/v1/sessions/a/push", PushRequest{Lambda: lam}, nil, http.StatusOK)
	}
	cl.mustDo("POST", "/v1/sessions/b/push", []PushRequest{{Lambda: 2}, {Lambda: 3}}, nil, http.StatusOK)
	cl.mustDo("POST", "/v1/sessions/a/checkpoint", nil, nil, http.StatusOK)
	if err := m.Evict("a"); err != nil {
		t.Fatal(err)
	}
	cl.mustDo("POST", "/v1/sessions/a/push", PushRequest{Lambda: 1}, nil, http.StatusOK) // resume
	cl.mustDo("DELETE", "/v1/sessions/b", nil, nil, http.StatusOK)

	var health struct {
		OK      bool    `json:"ok"`
		Metrics Metrics `json:"metrics"`
	}
	cl.mustDo("GET", "/v1/healthz", nil, &health, http.StatusOK)
	body := scrapeMetrics(t, srv.URL)

	counters := map[string]uint64{
		"rightsized_sessions_opened_total":        health.Metrics.SessionsOpened,
		"rightsized_sessions_resumed_total":       health.Metrics.SessionsResumed,
		"rightsized_sessions_evicted_total":       health.Metrics.SessionsEvicted,
		"rightsized_sessions_deleted_total":       health.Metrics.SessionsDeleted,
		"rightsized_slots_pushed_total":           health.Metrics.SlotsPushed,
		"rightsized_push_errors_total":            health.Metrics.PushErrors,
		"rightsized_pushes_shed_total":            health.Metrics.PushesShed,
		"rightsized_push_timeouts_total":          health.Metrics.PushTimeouts,
		"rightsized_store_retries_total":          health.Metrics.StoreRetries,
		"rightsized_wal_appends_total":            health.Metrics.WALAppends,
		"rightsized_wal_fsyncs_total":             health.Metrics.WALFsyncs,
		"rightsized_wal_recovered_sessions_total": health.Metrics.WALRecoveredSessions,
		"rightsized_wal_torn_tails_total":         health.Metrics.WALTornTails,
		"rightsized_snapshot_corrupt_total":       health.Metrics.SnapshotCorrupt,
	}
	for series, want := range counters {
		if got := promValue(t, body, series); got != float64(want) {
			t.Errorf("%s = %v, healthz says %d", series, got, want)
		}
	}
	if health.Metrics.SessionsResumed != 1 || health.Metrics.SessionsEvicted != 1 || health.Metrics.SessionsDeleted != 1 {
		t.Fatalf("traffic did not move the lifecycle counters: %+v", health.Metrics)
	}

	if got := promValue(t, body, "rightsized_live_sessions"); got != float64(health.Metrics.LiveSessions) {
		t.Errorf("live_sessions gauge %v != healthz %d", got, health.Metrics.LiveSessions)
	}
	shardSum := 0.0
	for i := 0; i < len(m.met.stripes); i++ {
		shardSum += promValue(t, body, `rightsized_shard_sessions{shard="`+strconv.Itoa(i)+`"}`)
	}
	if shardSum != float64(health.Metrics.LiveSessions) {
		t.Errorf("shard gauges sum to %v, live_sessions is %d", shardSum, health.Metrics.LiveSessions)
	}
	if got := promValue(t, body, "rightsized_stream_subscribers"); got != 0 {
		t.Errorf("stream_subscribers = %v with no streams open", got)
	}

	// 8 push observations: 6 singles, 1 batch, 1 resume push.
	count := promValue(t, body, "rightsized_push_latency_seconds_count")
	if count != 8 {
		t.Errorf("histogram _count = %v, want 8", count)
	}
	if inf := promValue(t, body, `rightsized_push_latency_seconds_bucket{le="+Inf"}`); inf != count {
		t.Errorf("+Inf bucket %v != _count %v", inf, count)
	}
	if sum := promValue(t, body, "rightsized_push_latency_seconds_sum"); sum <= 0 {
		t.Errorf("histogram _sum = %v, want > 0", sum)
	}

	// The memo counters are present and sane (process-global, so other
	// tests may have grown them — just demand hits+misses > 0 after a
	// solve and non-negative parsing via promValue above).
	if h, ms := promValue(t, body, "rightsized_solver_memo_hits_total"), promValue(t, body, "rightsized_solver_memo_misses_total"); h+ms <= 0 {
		t.Errorf("solver memo counters flat (hits %v, misses %v) after solving pushes", h, ms)
	}
}

// The scrape must stay lock-free: with every shard mutex and a session
// mutex held, appendPromText still completes.
func TestMetricsScrapeLockFree(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	if _, err := m.Open(OpenRequest{ID: "s", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	for i := range m.shards {
		for _, ls := range m.shards[i].live {
			ls.mu.Lock()
			defer ls.mu.Unlock()
		}
	}

	done := make(chan []byte, 1)
	go func() { done <- m.appendPromText(nil) }()
	select {
	case body := <-done:
		if err := promlint.Lint(strings.NewReader(string(body))); err != nil {
			t.Fatalf("exposition under full lock contention fails lint: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("appendPromText blocked on a lock; the scrape must be lock-free")
	}
}

// scrapeManager is a manager with one session 32 slots old, the state
// BenchmarkMetricsScrape scrapes.
func scrapeManager(tb testing.TB) *Manager {
	m := NewManager(Options{})
	tb.Cleanup(func() { m.Close() })
	if _, err := m.Open(OpenRequest{ID: "s", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		tb.Fatal(err)
	}
	for slot := 0; slot < 32; slot++ {
		if _, err := m.Push("s", PushRequest{Lambda: float64(1 + slot%5)}); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// metricsScrapeRatio is BenchmarkMetricsScrape's wall-time gate (see
// perfref.Gate): ns/op over the reference task's, recorded on a 2-vCPU
// Xeon @ 2.1 GHz, Go 1.24, 2026-10-17.
const metricsScrapeRatio = 0.003038

// The scrape runs on every prometheus poll and must stay microseconds
// even with all 256 histogram buckets folded.
func BenchmarkMetricsScrape(b *testing.B) {
	m := scrapeManager(b)
	var buf []byte
	op := func() { buf = m.appendPromText(buf[:0]) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	perfref.Gate(b, metricsScrapeRatio, op)
}

// appendPromText writes into the caller's reused buffer from atomic
// loads only, so any allocation means the exporter grew per-scrape
// intermediate state.
func TestMetricsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	m := scrapeManager(t)
	buf := m.appendPromText(nil)
	if a := testing.AllocsPerRun(100, func() { buf = m.appendPromText(buf[:0]) }); a != 0 {
		t.Fatalf("a scrape allocates %v, want 0", a)
	}
}
