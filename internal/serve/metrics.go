package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Metrics is the manager's aggregate-counter snapshot, reported by
// GET /v1/healthz. Latency quantiles are interpolated from a lock-free
// log-bucketed histogram over all observations (one observation per
// Push, one per PushBatch) and are 0 until the first observation.
type Metrics struct {
	LiveSessions    int    `json:"live_sessions"`
	SessionsOpened  uint64 `json:"sessions_opened"`
	SessionsResumed uint64 `json:"sessions_resumed"`
	SessionsEvicted uint64 `json:"sessions_evicted"`
	SessionsDeleted uint64 `json:"sessions_deleted"`
	SlotsPushed     uint64 `json:"slots_pushed"`
	PushErrors      uint64 `json:"push_errors"`
	PushesShed      uint64 `json:"pushes_shed"`
	PushTimeouts    uint64 `json:"push_timeouts"`
	StoreRetries    uint64 `json:"store_retries"`
	// The write-ahead-log family (0 unless Options.WALDir is set):
	// appends, fsyncs those appends performed, sessions rebuilt by the
	// startup recovery scan, and torn tails truncated on log open.
	WALAppends           uint64 `json:"wal_appends"`
	WALFsyncs            uint64 `json:"wal_fsyncs"`
	WALRecoveredSessions uint64 `json:"wal_recovered_sessions"`
	WALTornTails         uint64 `json:"wal_torn_tails"`
	// SnapshotCorrupt counts corrupt snapshot or WAL files quarantined
	// (renamed to <name>.corrupt) instead of wedging their session id.
	SnapshotCorrupt uint64 `json:"snapshot_corrupt"`
	// ResumeReplayedSlots counts the replay-log slots resumes stepped
	// through an algorithm. A resume that restores the session's saved
	// state steps none, so it stays 0 while every resume restores.
	ResumeReplayedSlots uint64  `json:"resume_replayed_slots"`
	PushP50Micros       float64 `json:"push_p50_us"`
	PushP99Micros       float64 `json:"push_p99_us"`
}

// counters aggregates manager activity. The counters are striped in
// lockstep with the registry's lock shards: a push to session X bumps the
// stripe of X's shard, so under cross-core traffic two sessions on
// different shards never write the same counter cache line — global
// atomics would be true sharing, one line ping-ponging between every
// core on every push. Every field — the per-stripe latency histograms
// included — is updated atomically, so the push hot path never takes a
// metrics lock and a healthz scrape (which merges the stripes) never
// stalls pushes.
type counters struct {
	stripes []counterStripe
}

// counterStripe is one registry shard's counter block. The seventeen hot
// words, padded to 24, fill exactly three 64-byte cache lines before the
// histogram, so the stripe occupies a whole number of lines and adjacent
// stripes never false-share; TestCounterStripePadding asserts the layout.
type counterStripe struct {
	opened  atomic.Uint64
	resumed atomic.Uint64
	evicted atomic.Uint64
	deleted atomic.Uint64
	pushes  atomic.Uint64
	pushErr atomic.Uint64
	shed    atomic.Uint64
	timeout atomic.Uint64
	retries atomic.Uint64
	// live is this shard's session occupancy, maintained at insert/unlink
	// so a /metrics scrape can report per-shard gauges without touching
	// any shard lock.
	live atomic.Int64
	// latSumNs accumulates observed push latency for the prometheus
	// histogram's _sum series; the bucket counts live in lat.
	latSumNs atomic.Int64
	// The WAL family: appends logged, fsyncs issued for them, sessions
	// rebuilt by recovery, torn tails truncated on open — plus corrupt
	// snapshot/WAL files quarantined.
	walAppends   atomic.Uint64
	walFsyncs    atomic.Uint64
	walRecovered atomic.Uint64
	walTorn      atomic.Uint64
	snapCorrupt  atomic.Uint64
	// resumeReplayed counts replay-log slots stepped by resumes that
	// could not restore saved state.
	resumeReplayed atomic.Uint64
	_              [7]uint64
	lat            latencyHist
}

// observe records one push latency on this stripe: the histogram bucket
// and the running sum, both wait-free.
func (s *counterStripe) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.latSumNs.Add(int64(d))
	s.lat.observe(d)
}

func newCounters(stripes int) counters {
	return counters{stripes: make([]counterStripe, stripes)}
}

func (c *counters) snapshot(live int) Metrics {
	m := Metrics{LiveSessions: live}
	var buckets [histBuckets]uint64
	if total, _ := c.merge(&m, &buckets); total > 0 {
		m.PushP50Micros = quantileOf(&buckets, total, 0.50) / float64(time.Microsecond)
		m.PushP99Micros = quantileOf(&buckets, total, 0.99) / float64(time.Microsecond)
	}
	return m
}

// merge sums the stripes' counters into agg and their latency
// histograms into buckets, returning the observation count and the
// latency sum in nanoseconds. It is the one place a counter is summed
// for both exporters, healthz (snapshot) and /metrics (appendPromText).
func (c *counters) merge(agg *Metrics, buckets *[histBuckets]uint64) (total uint64, sumNs int64) {
	for i := range c.stripes {
		s := &c.stripes[i]
		agg.SessionsOpened += s.opened.Load()
		agg.SessionsResumed += s.resumed.Load()
		agg.SessionsEvicted += s.evicted.Load()
		agg.SessionsDeleted += s.deleted.Load()
		agg.SlotsPushed += s.pushes.Load()
		agg.PushErrors += s.pushErr.Load()
		agg.PushesShed += s.shed.Load()
		agg.PushTimeouts += s.timeout.Load()
		agg.StoreRetries += s.retries.Load()
		agg.WALAppends += s.walAppends.Load()
		agg.WALFsyncs += s.walFsyncs.Load()
		agg.WALRecoveredSessions += s.walRecovered.Load()
		agg.WALTornTails += s.walTorn.Load()
		agg.SnapshotCorrupt += s.snapCorrupt.Load()
		agg.ResumeReplayedSlots += s.resumeReplayed.Load()
		sumNs += s.latSumNs.Load()
		for b := range buckets {
			v := s.lat.buckets[b].Load()
			buckets[b] += v
			total += v
		}
	}
	return total, sumNs
}

// latencyHist is a lock-free histogram of push latencies: 4 log-spaced
// sub-buckets per power of two of nanoseconds (quarter-octave, so bucket
// bounds are within ~19% of each other across the whole range), counted
// with plain atomic adds. observe is wait-free; quantiles reads a
// best-effort snapshot of the counters and linearly interpolates inside
// the winning bucket, which is exact enough for p50/p99 reporting and
// never blocks a push. Unlike the ring it replaced, the histogram covers
// every observation since start, not a sliding window — and a scrape no
// longer sorts under the same lock the hot path takes (it takes none).
const (
	histSubBits = 2                // sub-buckets per octave = 1<<histSubBits
	histSub     = 1 << histSubBits // 4
	histBuckets = 64 * histSub     // durations up to 2^63 ns
)

type latencyHist struct {
	buckets [histBuckets]atomic.Uint64
}

// bucketOf maps a duration in nanoseconds onto its bucket index. The top
// histSubBits bits below the leading bit select the sub-bucket, so the
// index is monotone in d.
func bucketOf(d uint64) int {
	if d < 2*histSub {
		return int(d) // the first octaves are exact: one bucket per ns
	}
	top := bits.Len64(d) - 1 // position of the leading bit, >= histSubBits+1
	sub := (d >> (top - histSubBits)) & (histSub - 1)
	return (top-histSubBits+1)*histSub + int(sub)
}

// bucketBounds returns the [lo, hi) duration range of bucket i, the
// inverse of bucketOf.
func bucketBounds(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	top := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	l := uint64(1)<<top + sub<<(top-histSubBits)
	// Widths are added in float64: the last bucket's upper bound exceeds
	// the uint64 range.
	return float64(l), float64(l) + float64(uint64(1)<<(top-histSubBits))
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(uint64(d))].Add(1)
}

// quantiles interpolates p50 and p99 (in nanoseconds) from one counter
// snapshot, so the pair is mutually consistent (p99 >= p50) even while
// pushes land concurrently.
func (h *latencyHist) quantiles() (p50, p99 float64) {
	var snap [histBuckets]uint64
	total := uint64(0)
	for i := range snap {
		snap[i] = h.buckets[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0, 0
	}
	return quantileOf(&snap, total, 0.50), quantileOf(&snap, total, 0.99)
}

// quantileOf locates the bucket holding the q-th observation and
// interpolates linearly within its bounds.
func quantileOf(snap *[histBuckets]uint64, total uint64, q float64) float64 {
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i, n := range snap {
		if n == 0 {
			continue
		}
		if rank < cum+n {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(float64(rank-cum)+0.5)/float64(n)
		}
		cum += n
	}
	// Unreachable when total matches the snapshot; be defensive.
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}
