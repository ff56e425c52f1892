package solver

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/model"
)

// The shard struct must stay a whole number of cache lines so adjacent
// shards in the array never share a line — the padding the RCU design's
// contention-freedom rests on.
func TestGCacheShardPadding(t *testing.T) {
	if s := unsafe.Sizeof(gcacheShard{}); s%64 != 0 {
		t.Fatalf("gcacheShard is %d bytes, not a multiple of the 64-byte cache line", s)
	}
}

// A layer just inserted must be visible to lookups immediately — served
// from the write-behind buffer before the batch merge, from the merged
// generation after it — and merging must not drop or duplicate entries.
// A hit in the buffer merges it, so the next hit is lock-free.
func TestGCachePendingVisibleBeforeMerge(t *testing.T) {
	swapGcache(t, 1, gcacheMaxFloats)
	g := []float64{1, 2, 3}
	first := benchSig(1 << 40)
	gcachePut(first, g)
	sh := &gcache.shards[0]
	pending := func() int {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return len(sh.pending)
	}
	if pending() != 1 {
		t.Fatalf("pending buffer holds %d entries after one insert, want 1", pending())
	}
	if got, ok := gcacheGet(first, 0); !ok || len(got) != len(g) || got[0] != 1 {
		t.Fatalf("pre-merge lookup: got %v, %v; want the pending entry", got, ok)
	}
	if n := pending(); n != 0 || len(sh.cur.Load().m) != 1 {
		t.Fatalf("a buffer hit left %d entries pending, %d merged; want 0, 1", n, len(sh.cur.Load().m))
	}
	for i := 0; i < gcachePendingMax; i++ {
		gcachePut(benchSig(uint64(1<<40+i+1)), g)
	}
	if n := pending(); n >= gcachePendingMax {
		t.Fatalf("pending buffer never merged: %d entries", n)
	}
	if got, ok := gcacheGet(first, 0); !ok || len(got) != len(g) || got[2] != 3 {
		t.Fatalf("post-merge lookup: got %v, %v; want the merged entry", got, ok)
	}
}

// TestGCacheShardStress hammers the sharded memo from many goroutines
// solving memo-eligible instances concurrently while a starvation-sized
// budget forces shard resets throughout — the darkest corner of the RCU
// design (concurrent lock-free reads racing copy-on-write merges and
// resets). Every concurrent result must be bit-identical to the serially
// computed memo-off answer. CI runs this under -race.
func TestGCacheShardStress(t *testing.T) {
	// A budget of ~2k floats across 4 shards holds only a handful of
	// layers per shard, so inserts trip resets constantly.
	swapGcache(t, 4, 2048)

	rng := rand.New(rand.NewSource(99))
	const nInstances = 6
	type baseline struct {
		cost  uint64
		sched [][]int
	}
	inss := make([]*model.Instance, 0, nInstances)
	wants := make([]baseline, 0, nInstances)
	for i := 0; i < nInstances; i++ {
		ins := randomInstance(rng, 2, 4, 8)
		plain, err := memoless(func() (*Result, error) { return Solve(ins, Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		want := baseline{cost: math.Float64bits(plain.Cost())}
		for _, cfg := range plain.Schedule {
			want.sched = append(want.sched, append([]int(nil), cfg...))
		}
		inss = append(inss, ins)
		wants = append(wants, want)
	}

	goroutines := 8
	rounds := 10
	if testing.Short() {
		goroutines, rounds = 4, 3
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (g + r) % nInstances
				res, err := Solve(inss[k], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(res.Cost()) != wants[k].cost {
					t.Errorf("goroutine %d round %d: cost %v != plain %v",
						g, r, res.Cost(), math.Float64frombits(wants[k].cost))
					return
				}
				for s, cfg := range res.Schedule {
					for j, v := range cfg {
						if v != wants[k].sched[s][j] {
							t.Errorf("goroutine %d round %d slot %d: schedule diverged", g, r, s+1)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
