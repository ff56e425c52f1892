package solver

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/costfn"
	"repro/internal/numeric"
)

// The operating-cost layer memo. A DP layer's g-contribution — the vector
// (g_t(x))_{x ∈ M} — depends only on the slot's content: the job volume
// λ_t, the per-type server counts and capacities, the slot's cost
// functions and the lattice-reduction γ. It does not depend on t itself,
// on the algorithm asking, or on which solver instance is sweeping. The
// memo therefore lives at process scope: periodic workloads reuse layers
// across slots, Algorithm C's sub-slots of one slot collapse to a single
// evaluation, and the engine's suite (OPT solve plus every tracker-based
// algorithm on the same instance) computes each distinct layer once.
//
// Determinism: cached vectors are exactly the vectors the evaluator would
// compute (g_t is a pure function and the dispatch dual is canonical, see
// internal/dispatch), so hits and misses — including racy double-computes
// under concurrent suite workers — never change results, only speed.
//
// Cost functions are fingerprinted by value for the stock families
// (Constant, Affine, Power, Exponential, PiecewiseLinear, Scaled); slots
// carrying any other implementation are not memoised. Hash collisions are
// resolved by full structural key comparison, never trusted.
//
// Concurrency: the memo is sharded (power-of-two stripes keyed by the
// structural fingerprint) and each shard publishes an immutable
// generation map through an atomic pointer — reads are lock-free and
// inserts are copy-on-write under a per-shard mutex (RCU). Sixteen
// concurrent serving sessions therefore share read-only cache lines on
// the hit path instead of funnelling through one process-global mutex.
// BenchmarkScaling/GCacheParallel gates how that scales; README's
// multi-core scaling table has the before/after.

// gcacheMaxFloats bounds the memo's payload (~32 MB of float64s) across
// all shards. When an insert would exceed a shard's slice of the budget
// the shard resets — a simple, deterministic eviction that keeps
// unbounded fuzz/property workloads from growing the memo without limit.
const gcacheMaxFloats = 4 << 20

// gcacheShards stripes the memo. Every concurrent session in the process
// funnels its layer lookups through this structure, so the shard count is
// sized for the serving tier's 16-way concurrency, not for GOMAXPROCS.
// Power of two; behaviorally invisible (see gcache_test.go).
const gcacheShards = 16

// gcacheGen is one immutable generation of a shard's merged contents.
// Readers see a generation through one atomic load and never take a
// lock; writers build the next generation copy-on-write under the shard
// mutex and publish it with one atomic store (RCU). Entries and chains
// are never mutated after publication, so a generation loaded by a
// reader stays valid for as long as the reader holds it.
type gcacheGen struct {
	m      map[uint64]*gcacheEntry
	floats int
}

// gcachePendingMax bounds a shard's write-behind buffer. Cloning the
// whole generation map on every insert would make a cold sweep's misses
// O(shard size) each; batching gcachePendingMax inserts per clone
// amortizes the copy to O(size/pendingMax) while keeping the locked
// miss-path scan short.
const gcachePendingMax = 32

// gcacheShard is one stripe of the memo, padded out to a whole number of
// cache lines: the read-hot generation pointer and the write-only mutex
// and pending buffer of neighbouring shards must not false-share under
// cross-core traffic. TestGCacheShardPadding asserts the layout.
type gcacheShard struct {
	cur atomic.Pointer[gcacheGen] // lock-free read path (merged entries)

	mu            sync.Mutex     // serializes inserts, merges, resets
	pending       []*gcacheEntry // inserted but not yet merged into cur
	pendingFloats int
	_             [16]byte // 48 bytes of fields -> one full cache line
}

// gcacheStats is one shard's hit/miss tally, padded to a whole cache
// line: the counters are written on every lookup, so if they shared a
// line with a neighbouring shard's counters (or with the read-hot
// generation pointer) the write traffic would reintroduce exactly the
// cross-core sharing the sharded memo exists to avoid. They live in a
// parallel array, not inside gcacheShard, so the shard's generation
// pointer stays on a line that hit-path writes never touch.
type gcacheStats struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [48]byte // 16 bytes of counters -> one full 64-byte line
}

// gMemo is the sharded layer memo. The zero shard count is invalid; use
// newGMemo. Shard selection reuses the signature's FNV-1a digest: the
// digest's low bits pick the stripe, the full digest keys the map inside.
type gMemo struct {
	shards []gcacheShard
	stats  []gcacheStats // indexed in lockstep with shards
	mask   uint64
	budget int // per-shard float budget
}

// newGMemo builds a memo with the given power-of-two shard count and
// total float budget. A 1-shard memo is semantically the legacy
// single-map design (one global budget, whole-memo resets); the default
// 16-shard memo splits the budget evenly and resets shard-locally —
// either way the memo stays bounded by total and eviction stays a
// deterministic function of the insert sequence per shard.
func newGMemo(shards, totalFloats int) *gMemo {
	return &gMemo{
		shards: make([]gcacheShard, shards),
		stats:  make([]gcacheStats, shards),
		mask:   uint64(shards - 1),
		budget: totalFloats / shards,
	}
}

// gcache is the process-global memo. Tests swap it (see gcache_test.go)
// to prove shard-count invisibility; production code only ever reads it.
var gcache = newGMemo(gcacheShards, gcacheMaxFloats)

type gcacheEntry struct {
	sig  gcacheSig
	g    []float64
	next *gcacheEntry
}

// gcacheSig is the full structural key of one slot's layer; hash is the
// FNV-1a digest of the remaining fields.
type gcacheSig struct {
	hash   uint64
	lambda float64
	gamma  float64
	counts []int
	caps   []float64
	fns    []costfn.Func
}

func (s *gcacheSig) equal(o *gcacheSig) bool {
	if s.lambda != o.lambda || s.gamma != o.gamma ||
		!numeric.EqualInts(s.counts, o.counts) || len(s.caps) != len(o.caps) {
		return false
	}
	for i := range s.caps {
		if s.caps[i] != o.caps[i] {
			return false
		}
	}
	if len(s.fns) != len(o.fns) {
		return false
	}
	for i := range s.fns {
		if !fnEqual(s.fns[i], o.fns[i]) {
			return false
		}
	}
	return true
}

// fnv1a is an incremental 64-bit FNV-1a hasher.
type fnv1a uint64

func newFnv() fnv1a { return 0xcbf29ce484222325 }

func (h *fnv1a) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 0x100000001b3
		v >>= 8
	}
	*h = fnv1a(x)
}

func (h *fnv1a) f64(v float64) { h.u64(math.Float64bits(v)) }

// fnFingerprint mixes f's structural identity into h and reports whether
// the function belongs to a fingerprintable family.
func fnFingerprint(h *fnv1a, f costfn.Func) bool {
	switch v := f.(type) {
	case costfn.Constant:
		h.u64(1)
		h.f64(v.C)
	case costfn.Affine:
		h.u64(2)
		h.f64(v.Idle)
		h.f64(v.Rate)
	case costfn.Power:
		h.u64(3)
		h.f64(v.Idle)
		h.f64(v.Coef)
		h.f64(v.Exp)
	case costfn.Exponential:
		h.u64(4)
		h.f64(v.Idle)
		h.f64(v.Amp)
		h.f64(v.Rate)
	case costfn.PiecewiseLinear:
		h.u64(5)
		n := v.NumBreakpoints()
		h.u64(uint64(n))
		for i := 0; i < n; i++ {
			z, val := v.Breakpoint(i)
			h.f64(z)
			h.f64(val)
		}
	case costfn.Scaled:
		h.u64(6)
		h.f64(v.Factor)
		return fnFingerprint(h, v.F)
	default:
		return false
	}
	return true
}

// fnEqual reports structural equality for fingerprintable families. It
// deliberately avoids interface == (PiecewiseLinear is not comparable).
func fnEqual(a, b costfn.Func) bool {
	switch va := a.(type) {
	case costfn.Constant:
		vb, ok := b.(costfn.Constant)
		return ok && va == vb
	case costfn.Affine:
		vb, ok := b.(costfn.Affine)
		return ok && va == vb
	case costfn.Power:
		vb, ok := b.(costfn.Power)
		return ok && va == vb
	case costfn.Exponential:
		vb, ok := b.(costfn.Exponential)
		return ok && va == vb
	case costfn.PiecewiseLinear:
		vb, ok := b.(costfn.PiecewiseLinear)
		if !ok || va.NumBreakpoints() != vb.NumBreakpoints() {
			return false
		}
		for i := 0; i < va.NumBreakpoints(); i++ {
			za, ca := va.Breakpoint(i)
			zb, cb := vb.Breakpoint(i)
			if za != zb || ca != cb {
				return false
			}
		}
		return true
	case costfn.Scaled:
		vb, ok := b.(costfn.Scaled)
		return ok && va.Factor == vb.Factor && fnEqual(va.F, vb.F)
	default:
		return false
	}
}

// gcacheGet returns the cached layer for sig, if present. The fast path
// is lock-free: one atomic generation load, one map probe, a chain walk
// over immutable entries — concurrent readers on different cores share
// nothing writable. Only a miss on the merged generation falls back to
// scanning the shard's short write-behind buffer under the shard mutex,
// so recently inserted layers are visible immediately without ever
// putting a lock on the hit path.
func gcacheGet(sig *gcacheSig) ([]float64, bool) {
	return gcache.get(sig)
}

func (c *gMemo) get(sig *gcacheSig) ([]float64, bool) {
	sh := &c.shards[sig.hash&c.mask]
	st := &c.stats[sig.hash&c.mask]
	if gen := sh.cur.Load(); gen != nil {
		for e := gen.m[sig.hash]; e != nil; e = e.next {
			if e.sig.equal(sig) {
				st.hits.Add(1)
				return e.g, true
			}
		}
	}
	sh.mu.Lock()
	for _, e := range sh.pending {
		if e.sig.hash == sig.hash && e.sig.equal(sig) {
			g := e.g
			sh.mu.Unlock()
			st.hits.Add(1)
			return g, true
		}
	}
	sh.mu.Unlock()
	st.misses.Add(1)
	return nil, false
}

// MemoStats reports the process-global layer memo's lifetime lookup
// tally: hits (the layer vector was served from cache) and misses (it
// had to be computed; unmemoisable slots — custom cost-function
// implementations — are not lookups and count in neither). The counters
// are striped with the memo's shards and read without locks, so a
// metrics scrape never contends with the DP hot path. Serving-tier
// exporters (internal/serve's /metrics endpoint) surface these.
func MemoStats() (hits, misses uint64) {
	c := gcache
	for i := range c.stats {
		hits += c.stats[i].hits.Load()
		misses += c.stats[i].misses.Load()
	}
	return hits, misses
}

// gcachePut stores a layer under sig, copying the key material and the
// vector so callers may reuse their buffers. Writes land in the shard's
// pending buffer under the shard mutex; every gcachePendingMax inserts
// the buffer is merged into the next immutable generation copy-on-write
// and published with one atomic store (RCU), so readers never observe a
// map mid-mutation and the clone cost amortizes to O(1) map writes per
// insert. A concurrent duplicate insert — a second session computing the
// same layer between its miss and its put — is detected under the lock
// and dropped (the content would be bit-identical anyway: g_t is pure).
func gcachePut(sig *gcacheSig, g []float64) {
	gcache.put(sig, g)
}

func (c *gMemo) put(sig *gcacheSig, g []float64) {
	stored := &gcacheEntry{
		sig: gcacheSig{
			hash:   sig.hash,
			lambda: sig.lambda,
			gamma:  sig.gamma,
			counts: append([]int(nil), sig.counts...),
			caps:   append([]float64(nil), sig.caps...),
			fns:    append([]costfn.Func(nil), sig.fns...),
		},
		g: append([]float64(nil), g...),
	}
	sh := &c.shards[sig.hash&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	gen := sh.cur.Load()
	genFloats := 0
	if gen != nil {
		for e := gen.m[sig.hash]; e != nil; e = e.next {
			if e.sig.equal(sig) {
				return
			}
		}
		genFloats = gen.floats
	}
	for _, e := range sh.pending {
		if e.sig.hash == sig.hash && e.sig.equal(sig) {
			return
		}
	}
	if genFloats+sh.pendingFloats+len(g) > c.budget {
		// The shard's budget slice is exhausted: drop both the merged
		// generation and the buffer — the sharded form of the legacy
		// whole-memo reset, still a deterministic function of the shard's
		// insert sequence.
		sh.cur.Store(&gcacheGen{m: make(map[uint64]*gcacheEntry)})
		sh.pending = sh.pending[:0]
		sh.pendingFloats = 0
		gen = nil
	}
	sh.pending = append(sh.pending, stored)
	sh.pendingFloats += len(g)
	if len(sh.pending) >= gcachePendingMax {
		c.mergeLocked(sh, gen)
	}
}

// mergeLocked folds the shard's pending buffer into a fresh immutable
// generation and publishes it. Caller holds sh.mu. Chaining mutates the
// pending entries' next pointers, which is safe: buffer readers never
// touch next, and chain readers only reach these entries through the
// atomic store below (release/acquire ordering).
func (c *gMemo) mergeLocked(sh *gcacheShard, gen *gcacheGen) {
	size := len(sh.pending)
	if gen != nil {
		size += len(gen.m)
	}
	next := &gcacheGen{m: make(map[uint64]*gcacheEntry, size)}
	if gen != nil {
		for k, v := range gen.m {
			next.m[k] = v
		}
		next.floats = gen.floats
	}
	for _, e := range sh.pending {
		e.next = next.m[e.sig.hash]
		next.m[e.sig.hash] = e
		next.floats += len(e.g)
	}
	sh.pending = sh.pending[:0]
	sh.pendingFloats = 0
	sh.cur.Store(next)
}
