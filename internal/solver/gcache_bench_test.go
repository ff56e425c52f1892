package solver

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/costfn"
	"repro/internal/perfref"
)

// benchSig builds a distinct, fully fingerprintable layer signature. The
// field layout and hash ordering mirror layerEvaluator.signature, so the
// benchmark exercises exactly the key path production lookups take.
func benchSig(i uint64) *gcacheSig {
	s := &gcacheSig{
		lambda: 1 + float64(i)*1e-9,
		gamma:  0,
		counts: []int{24, 6},
		caps:   []float64{1, 4},
		fns: []costfn.Func{
			costfn.Power{Idle: 1, Coef: 0.6, Exp: 2},
			costfn.Affine{Idle: 4, Rate: 0.3},
		},
	}
	h := newKeyHash()
	h.f64(s.lambda)
	h.f64(s.gamma)
	for j := range s.counts {
		h.u64(uint64(s.counts[j]))
		h.f64(s.caps[j])
		fnFingerprint(&h, s.fns[j])
	}
	s.hash = uint64(h)
	return s
}

// benchLayerLen matches the facade benchmark fleet's 175-cell lattice, so
// cached vectors have production-shaped payloads.
const benchLayerLen = 175

// warmSigs fills the memo with 64 layers and returns their signatures.
func warmSigs() []*gcacheSig {
	sigs := make([]*gcacheSig, 64)
	g := make([]float64, benchLayerLen)
	for i := range g {
		g[i] = float64(i)
	}
	for i := range sigs {
		sigs[i] = benchSig(uint64(i))
		gcachePut(sigs[i], g)
	}
	return sigs
}

// hit looks up the i-th warm layer, counting on stripe.
func hit(sigs []*gcacheSig, stripe uint32, i int) {
	if _, ok := gcacheGet(sigs[i%len(sigs)], stripe); !ok {
		panic("warm entry missing")
	}
}

// insert looks up a fresh layer, numbered by seq, counting on stripe,
// and inserts it.
func insert(seq *atomic.Uint64, g []float64, stripe uint32) {
	sig := benchSig(seq.Add(1))
	if _, ok := gcacheGet(sig, stripe); !ok {
		gcachePut(sig, g)
	}
}

// newSeq numbers fresh layers disjoint from the warm ones.
func newSeq() *atomic.Uint64 {
	seq := new(atomic.Uint64)
	seq.Store(1 << 32)
	return seq
}

// BenchmarkScaling gates how the memo scales with GOMAXPROCS (see
// perfref.Scale) under concurrent sessions, the serving tier's steady
// state. Hits, served lock-free from a warm memo, must scale; inserts,
// which copy-on-write serialises per shard, must not collapse when
// oversubscribed.
func BenchmarkScaling(b *testing.B) {
	b.Run("GCacheParallel/hit", func(b *testing.B) {
		sigs := warmSigs()
		perfref.Scale(b, 0.5, 1.6, func() { spread(func(stripe uint32, i int) { hit(sigs, stripe, i) }) })
	})
	b.Run("GCacheParallel/insert", func(b *testing.B) {
		seq, g := newSeq(), make([]float64, benchLayerLen)
		perfref.Scale(b, 0, 1.75, func() { spread(func(stripe uint32, _ int) { insert(seq, g, stripe) }) })
	})
}

// spread runs op(0..4095) over GOMAXPROCS goroutines, as b.RunParallel
// would. Each goroutine takes a memo stat stripe, as each session's
// layerEvaluator does, and passes it to its ops.
func spread(op func(stripe uint32, i int)) {
	const n = 4096
	p := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripe := newMemoStripe()
			for i := g; i < n; i += p {
				op(stripe, i)
			}
		}()
	}
	wg.Wait()
}
