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
// Admission: a tracker that prunes dominated cells (see prune.go) solves
// only part of a layer, and a partial layer cannot be cached. On a miss
// it therefore evaluates the pruned layer, inserts nothing, and records
// the signature's digest in its shard's doorkeeper, a small Bloom filter
// cleared every gcacheDoorReset digests (the doorkeeper of TinyLFU,
// Einziger et al., ACM TOS 2017). A later miss on a recorded digest
// evaluates the full layer and inserts it; when that miss comes right
// after the pruned one, as Algorithm C's sub-slots do, it keeps the
// cells already solved. Slots whose content never repeats, such as noisy
// demand, thus never pay for an insert nobody reads; a repeating slot
// pays one extra miss. Layers evaluated in full anyway (a first slot, a
// lattice change, an unprunable slot) are inserted at once, and so is
// every layer of a tracker bound to an instance (an offline sweep).
//
// Cost functions are fingerprinted by value for the stock families
// (Constant, Affine, Power, Exponential, PiecewiseLinear, Scaled); slots
// carrying any other implementation are not memoised. Hash collisions are
// resolved by full structural key comparison, never trusted.
//
// Concurrency: the memo is sharded (power-of-two stripes keyed by the
// structural fingerprint) and each shard publishes an immutable
// generation map through an atomic pointer — reads of merged layers are
// lock-free and inserts are copy-on-write under a per-shard mutex (RCU).
// Sixteen concurrent serving sessions therefore share read-only cache
// lines on the hit path instead of funnelling through one process-global
// mutex.
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

// A shard's doorkeeper is a Bloom filter of gcacheDoorBits bits with
// two probes, cleared after gcacheDoorReset digests: at most ≈ 1.4% of
// first sightings then read as second ones and insert a layer early. A
// false answer either way costs speed, never a wrong result.
const (
	gcacheDoorBits  = 4096
	gcacheDoorReset = 256
)

// gcacheDoor is one shard's doorkeeper, padded to whole cache lines:
// every memo miss on a stream writes it.
type gcacheDoor struct {
	bits  [gcacheDoorBits / 64]atomic.Uint64
	added atomic.Uint32
	_     [60]byte
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
	entries       []gcacheEntry // slab the next inserts' entries are carved from
	floats        []float64     // slab the next inserts' layer copies are carved from
	_             [32]byte      // 96 bytes of fields -> two full cache lines
}

// Inserts carve their entry and layer copy from per-shard slabs of
// gcacheEntrySlab entries and gcacheFloatSlab floats, and a fleet of up
// to four types keeps its key in the entry: an insert allocates about
// once per sixteen instead of five times. A layer larger than the float
// slab gets its own array. A slab is freed once no entry in it is
// reachable, so it retains at most one slab's worth after a reset.
const (
	gcacheEntrySlab = 16
	gcacheFloatSlab = 2048
)

// gcacheStats is one stripe of the memo's hit/miss tally, padded to a
// whole cache line. Every lookup writes a counter, so the stripe is the
// caller's, not the looked-up layer's: each layerEvaluator takes its own
// stripe at construction (newMemoStripe), and two evaluators hitting the
// same layer on two cores write two lines. Keyed by the layer, every
// core hitting one layer would write one line, and the lock-free hit
// path would not scale. MemoStats sums the stripes.
type gcacheStats struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [48]byte // 16 bytes of counters -> one full 64-byte line
}

// gcacheStripes is the number of stat stripes. newMemoStripe hands them
// out round-robin, so this many evaluators built in a row count on
// distinct lines.
const gcacheStripes = 16

var gcacheNextStripe atomic.Uint32

// newMemoStripe returns the next stat stripe, for a new memo caller.
func newMemoStripe() uint32 { return gcacheNextStripe.Add(1) % gcacheStripes }

// gMemo is the sharded layer memo. The zero shard count is invalid; use
// newGMemo. Shard selection reuses the signature's keyHash digest: the
// digest's low bits pick the shard, the full digest keys the map inside.
type gMemo struct {
	shards []gcacheShard
	stats  []gcacheStats // gcacheStripes stripes, indexed by the caller
	door   []gcacheDoor  // the admission doorkeepers, in lockstep with shards
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
		stats:  make([]gcacheStats, gcacheStripes),
		door:   make([]gcacheDoor, shards),
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

	// Backing arrays of sig's slices for fleets of up to four types.
	counts [4]int
	caps   [4]float64
	fns    [4]costfn.Func
}

// gcacheSig is the full structural key of one slot's layer; hash is the
// keyHash digest of the remaining fields.
type gcacheSig struct {
	hash   uint64
	lambda float64
	gamma  float64
	counts []int
	caps   []float64
	fns    []costfn.Func
}

// copyFrom makes s a copy of o, reusing s's slices.
func (s *gcacheSig) copyFrom(o *gcacheSig) {
	s.hash, s.lambda, s.gamma = o.hash, o.lambda, o.gamma
	s.counts = append(s.counts[:0], o.counts...)
	s.caps = append(s.caps[:0], o.caps...)
	s.fns = append(s.fns[:0], o.fns...)
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

// keyHash is an incremental 64-bit hash of a layer signature, one word
// per round: xor the word in, multiply by an odd constant, and fold the
// high half onto the low one, so the low bits (the shard index) depend
// on every bit seen. Every layer hashes its key, hit or miss, so a round
// per word rather than per byte matters; a collision costs a key
// comparison, never a wrong answer.
type keyHash uint64

func newKeyHash() keyHash { return 0xcbf29ce484222325 }

func (h *keyHash) u64(v uint64) {
	x := (uint64(*h) ^ v) * 0x9e3779b97f4a7c15
	*h = keyHash(x ^ x>>32)
}

func (h *keyHash) f64(v float64) { h.u64(math.Float64bits(v)) }

// fnFingerprint mixes f's structural identity into h and reports whether
// the function belongs to a fingerprintable family.
func fnFingerprint(h *keyHash, f costfn.Func) bool {
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
// so recently inserted layers are visible immediately. A hit there
// merges the buffer, so each layer takes the lock on at most one hit:
// without that, a shard holding fewer than gcachePendingMax layers
// would never merge and every hit on it would lock. The lookup counts
// on the caller's stat stripe (see gcacheStats).
func gcacheGet(sig *gcacheSig, stripe uint32) ([]float64, bool) {
	return gcache.get(sig, stripe)
}

func (c *gMemo) get(sig *gcacheSig, stripe uint32) ([]float64, bool) {
	sh := &c.shards[sig.hash&c.mask]
	st := &c.stats[stripe]
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
			// A layer looked up once is likely looked up again: merge
			// the buffer now so those hits skip the lock.
			c.mergeLocked(sh, sh.cur.Load())
			sh.mu.Unlock()
			st.hits.Add(1)
			return e.g, true
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
// are striped by caller (see gcacheStats) and read without locks, so a
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

// gcacheSeen reports whether an earlier miss recorded sig's digest in
// the doorkeeper, and records it otherwise: true admits sig's full layer
// into the memo (see the package comment on admission). Lock-free; a
// racing session at worst admits a layer one miss early or late.
func gcacheSeen(sig *gcacheSig) bool {
	return gcache.seen(sig.hash)
}

func (c *gMemo) seen(hash uint64) bool {
	d := &c.door[hash&c.mask]
	// The digest's low bits picked the shard; its upper bits probe.
	b1, b2 := (hash>>16)%gcacheDoorBits, (hash>>40)%gcacheDoorBits
	w1, m1 := &d.bits[b1/64], uint64(1)<<(b1%64)
	w2, m2 := &d.bits[b2/64], uint64(1)<<(b2%64)
	if w1.Load()&m1 != 0 && w2.Load()&m2 != 0 {
		return true
	}
	w1.Or(m1)
	w2.Or(m2)
	if d.added.Add(1) >= gcacheDoorReset {
		d.added.Store(0)
		for i := range d.bits {
			d.bits[i].Store(0)
		}
	}
	return false
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
	sh.pending = append(sh.pending, sh.newEntry(sig, g))
	sh.pendingFloats += len(g)
	if len(sh.pending) >= gcachePendingMax {
		c.mergeLocked(sh, gen)
	}
}

// newEntry copies sig and g into an entry carved from the shard's slabs.
// Caller holds sh.mu.
func (sh *gcacheShard) newEntry(sig *gcacheSig, g []float64) *gcacheEntry {
	if len(sh.entries) == 0 {
		sh.entries = make([]gcacheEntry, gcacheEntrySlab)
	}
	e := &sh.entries[0]
	sh.entries = sh.entries[1:]
	e.sig = gcacheSig{
		hash:   sig.hash,
		lambda: sig.lambda,
		gamma:  sig.gamma,
		counts: append(e.counts[:0], sig.counts...),
		caps:   append(e.caps[:0], sig.caps...),
		fns:    append(e.fns[:0], sig.fns...),
	}
	n := len(g)
	switch {
	case n > gcacheFloatSlab:
		e.g = append([]float64(nil), g...)
		return e
	case len(sh.floats) < n:
		sh.floats = make([]float64, gcacheFloatSlab)
	}
	e.g = sh.floats[:n:n]
	sh.floats = sh.floats[n:]
	copy(e.g, g)
	return e
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
