package serve

import (
	"net/http"
	"strconv"

	"repro/internal/solver"
)

// GET /metrics — Prometheus text exposition (format 0.0.4) over the
// same striped atomics /v1/healthz reads, plus surfaces healthz does
// not carry: per-shard occupancy gauges, the live subscription gauge,
// the solver's g-layer memo hit/miss counters, and the full push
// latency histogram instead of two interpolated quantiles.
//
// The scrape is lock-free end to end: every sample is an atomic load
// (counter stripes, the liveN/streamSubs gauges, the memo's sharded
// stats), so a scrape never stalls a push and a wedged session never
// stalls a scrape — BenchmarkMetricsScrape and TestMetricsScrapeLockFree
// hold the exporter to that.
//
// The histogram's le bounds are 2^k nanoseconds (k = promHistMinPow ..
// promHistMaxPow, ~4.1µs to ~8.6s, printed in seconds). Those are
// exactly the quarter-octave histogram's octave boundaries, so each
// cumulative bucket is a plain prefix sum of the atomic buckets — no
// re-binning, no approximation beyond the histogram's own bucket
// granularity.

const (
	promHistMinPow = 12 // 2^12 ns ≈ 4.1 µs
	promHistMaxPow = 33 // 2^33 ns ≈ 8.6 s
)

func (a *api) promMetrics(w http.ResponseWriter, r *http.Request) {
	bp := wireBuf()
	*bp = a.m.appendPromText(*bp)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp)
	putWireBuf(bp)
}

// promCounter appends one HELP/TYPE/sample triple for a counter.
func promCounter(dst []byte, name, help string, v uint64) []byte {
	dst = append(dst, "# HELP "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, help...)
	dst = append(dst, "\n# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, " counter\n"...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, v, 10)
	return append(dst, '\n')
}

// promGaugeHeader appends a gauge's HELP/TYPE lines; samples follow.
func promGaugeHeader(dst []byte, name, help string) []byte {
	dst = append(dst, "# HELP "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, help...)
	dst = append(dst, "\n# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, " gauge\n"...)
	return dst
}

// appendPromText appends the full exposition. Values are loaded stripe
// by stripe with plain atomic reads; like every multi-word snapshot in
// this package it is a best-effort cut, not a consistent point in time.
func (m *Manager) appendPromText(dst []byte) []byte {
	// Merge the counter stripes (and the histogram) once.
	var agg Metrics
	var buckets [histBuckets]uint64
	total, sumNs := m.met.merge(&agg, &buckets)

	dst = promCounter(dst, "rightsized_sessions_opened_total", "Sessions opened.", agg.SessionsOpened)
	dst = promCounter(dst, "rightsized_sessions_resumed_total", "Sessions transparently resumed from the snapshot store.", agg.SessionsResumed)
	dst = promCounter(dst, "rightsized_sessions_evicted_total", "Sessions checkpoint-evicted to the snapshot store.", agg.SessionsEvicted)
	dst = promCounter(dst, "rightsized_sessions_deleted_total", "Sessions deleted.", agg.SessionsDeleted)
	dst = promCounter(dst, "rightsized_slots_pushed_total", "Slots fed to sessions (batch slots counted individually).", agg.SlotsPushed)
	dst = promCounter(dst, "rightsized_push_errors_total", "Pushes failed past admission (bad slot, failed session, store).", agg.PushErrors)
	dst = promCounter(dst, "rightsized_pushes_shed_total", "Pushes denied by admission control (throttled or overloaded).", agg.PushesShed)
	dst = promCounter(dst, "rightsized_push_timeouts_total", "Pushes that hit the push deadline having fed nothing.", agg.PushTimeouts)
	dst = promCounter(dst, "rightsized_store_retries_total", "Snapshot store save retries.", agg.StoreRetries)
	dst = promCounter(dst, "rightsized_wal_appends_total", "Slot records appended to per-session write-ahead logs.", agg.WALAppends)
	dst = promCounter(dst, "rightsized_wal_fsyncs_total", "fsyncs issued by the WAL append path and the background flush sweep.", agg.WALFsyncs)
	dst = promCounter(dst, "rightsized_wal_recovered_sessions_total", "Sessions rebuilt from snapshot plus WAL replay at startup.", agg.WALRecoveredSessions)
	dst = promCounter(dst, "rightsized_wal_torn_tails_total", "Torn WAL tails truncated to the last whole record on open.", agg.WALTornTails)
	dst = promCounter(dst, "rightsized_snapshot_corrupt_total", "Corrupt snapshot or WAL files quarantined to <name>.corrupt.", agg.SnapshotCorrupt)
	dst = promCounter(dst, "rightsized_resume_replayed_slots_total", "Replay-log slots stepped through an algorithm by resumes that could not restore saved state.", agg.ResumeReplayedSlots)

	hits, misses := solver.MemoStats()
	dst = promCounter(dst, "rightsized_solver_memo_hits_total", "Solver g-layer memo hits (process-wide).", hits)
	dst = promCounter(dst, "rightsized_solver_memo_misses_total", "Solver g-layer memo misses (process-wide).", misses)

	dst = promGaugeHeader(dst, "rightsized_live_sessions", "Resident sessions (placeholders included), across all shards.")
	dst = append(dst, "rightsized_live_sessions "...)
	dst = strconv.AppendInt(dst, m.liveN.Load(), 10)
	dst = append(dst, '\n')

	dst = promGaugeHeader(dst, "rightsized_stream_subscribers", "Live advisory stream subscriptions.")
	dst = append(dst, "rightsized_stream_subscribers "...)
	dst = strconv.AppendInt(dst, m.streamSubs.Load(), 10)
	dst = append(dst, '\n')

	dst = promGaugeHeader(dst, "rightsized_shard_sessions", "Resident sessions per registry shard.")
	for i := range m.met.stripes {
		dst = append(dst, `rightsized_shard_sessions{shard="`...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, `"} `...)
		dst = strconv.AppendInt(dst, m.met.stripes[i].live.Load(), 10)
		dst = append(dst, '\n')
	}

	const hist = "rightsized_push_latency_seconds"
	dst = append(dst, "# HELP "+hist+" Push latency (one observation per Push or PushBatch).\n"...)
	dst = append(dst, "# TYPE "+hist+" histogram\n"...)
	cum := uint64(0)
	next := 0 // first histogram bucket not yet folded into cum
	for k := promHistMinPow; k <= promHistMaxPow; k++ {
		// Fold every quarter-octave bucket strictly below 2^k ns: bucketOf
		// is monotone and 2^k opens a fresh bucket, so the prefix sum is
		// exactly the observations with d < 2^k.
		for lim := bucketOf(uint64(1) << k); next < lim; next++ {
			cum += buckets[next]
		}
		dst = append(dst, hist+`_bucket{le="`...)
		dst = strconv.AppendFloat(dst, float64(uint64(1)<<k)/1e9, 'g', -1, 64)
		dst = append(dst, `"} `...)
		dst = strconv.AppendUint(dst, cum, 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, hist+`_bucket{le="+Inf"} `...)
	dst = strconv.AppendUint(dst, total, 10)
	dst = append(dst, '\n')
	dst = append(dst, hist+"_sum "...)
	dst = strconv.AppendFloat(dst, float64(sumNs)/1e9, 'g', -1, 64)
	dst = append(dst, '\n')
	dst = append(dst, hist+"_count "...)
	dst = strconv.AppendUint(dst, total, 10)
	return append(dst, '\n')
}
