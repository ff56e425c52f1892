package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/perfref"
	"repro/internal/stream"
)

// Wall-time gates (see perfref.Gate): ns/op over the reference task's,
// recorded on a 2-vCPU Xeon @ 2.1 GHz, Go 1.24, 2026-10-17.
const (
	servePushRatio         = 0.0853
	servePushParallelRatio = 0.845
)

// pushTrace is one op of BenchmarkServePush: it opens a managed session,
// drives the 48-slot quickstart trace through Manager.Push and deletes
// the session.
func pushTrace(m *Manager, id string, trace []float64) error {
	if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		return err
	}
	for _, lambda := range trace {
		if _, err := m.Push(id, PushRequest{Lambda: lambda}); err != nil {
			return err
		}
	}
	_, err := m.Delete(id)
	return err
}

// BenchmarkServePush measures the serving layer's overhead over a raw
// stream session: one op opens a managed session, drives the 48-slot
// quickstart trace through Manager.Push (acquire, per-session lock,
// metrics) and deletes it — the manager-path counterpart of the root
// package's BenchmarkStreamSession, without HTTP.
func BenchmarkServePush(b *testing.B) {
	m := NewManager(Options{})
	trace := quickstartTrace(b)
	n := 0
	op := func() {
		n++
		if err := pushTrace(m, fmt.Sprintf("bench-%d", n), trace); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	perfref.Gate(b, servePushRatio, op)
}

// A session pushed through the manager allocates no more objects than
// when the bound was set.
func TestServePushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	m := NewManager(Options{})
	trace := quickstartTrace(t)
	i := 0
	a := testing.AllocsPerRun(20, func() {
		i++
		if err := pushTrace(m, fmt.Sprintf("bench-%d", i), trace); err != nil {
			t.Fatal(err)
		}
	})
	if a > 172 {
		t.Fatalf("a pushed 48-slot session allocates %v, want <= 172", a)
	}
}

// A steady-state Manager.Push on a session whose layers the memo holds
// allocates at most 2 objects per slot.
func TestManagerPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	m := NewManager(Options{})
	defer m.Close()
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "s", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "s", trace, 0, len(trace))
	i := 0
	a := testing.AllocsPerRun(len(trace), func() {
		if _, err := m.Push("s", PushRequest{Lambda: trace[i%len(trace)]}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if a > 2 {
		t.Fatalf("a memo-hit push allocates %v per slot, want <= 2", a)
	}
}

// pushParallel is one op of BenchmarkServePushParallel: it opens
// nSessions managed sessions and drives reqs through all of them
// concurrently, one Manager.Push per slot for batch 1 and
// Manager.PushBatch in runs of batch slots otherwise, then deletes them.
func pushParallel(m *Manager, reqs []PushRequest, batch, seq int) error {
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for s := 0; s < nSessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := fmt.Sprintf("p%d-%d-%d", batch, seq, s)
			if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
				errs <- err
				return
			}
			for start := 0; start < len(reqs); start += batch {
				var err error
				if batch == 1 {
					_, err = m.Push(id, reqs[start])
				} else {
					_, err = m.PushBatch(id, reqs[start:min(start+batch, len(reqs))])
				}
				if err != nil {
					errs <- err
					return
				}
			}
			if _, err := m.Delete(id); err != nil {
				errs <- err
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// nSessions is how many sessions the parallel benchmarks drive at once.
const nSessions = 16

// parallelSetup is the manager and requests BenchmarkServePushParallel
// drives.
func parallelSetup(tb testing.TB) (*Manager, []PushRequest) {
	m := NewManager(Options{MaxSessions: nSessions + 1, Shards: nSessions})
	trace := quickstartTrace(tb)
	reqs := make([]PushRequest, len(trace))
	for i, lambda := range trace {
		reqs[i] = PushRequest{Lambda: lambda}
	}
	return m, reqs
}

// BenchmarkServePushParallel measures aggregate serving throughput: one
// op opens 16 managed sessions and drives the 48-slot quickstart trace
// through all of them concurrently — unbatched (one Manager.Push per
// slot) and batched (Manager.PushBatch in runs of 16 slots). With the
// sharded registry the sessions spread across 16 lock stripes, so on a
// multi-core box the op scales with GOMAXPROCS; the batched variant
// additionally amortizes the acquire/metrics overhead. The batch=1
// variant is wall-gated.
func BenchmarkServePushParallel(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			m, reqs := parallelSetup(b)
			n := 0
			op := func() {
				n++
				if err := pushParallel(m, reqs, batch, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			if batch == 1 {
				perfref.Gate(b, servePushParallelRatio, op)
			}
		})
	}
}

// 16 concurrently pushed sessions allocate no more objects than when the
// bound was set: 2 980, which the goroutines' interleaving moves by up
// to 2.
func TestServePushParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	m, reqs := parallelSetup(t)
	i := 0
	a := testing.AllocsPerRun(10, func() {
		i++
		if err := pushParallel(m, reqs, 1, i); err != nil {
			t.Fatal(err)
		}
	})
	if a > 2982 {
		t.Fatalf("16 pushed 48-slot sessions allocate %v, want <= 2982", a)
	}
}

// BenchmarkScaling gates how the parallel manager and HTTP workloads
// scale with GOMAXPROCS (see perfref.Scale). Batched serving must show
// real scaling; unbatched HTTP is round-trip-latency-bound, so it only
// carries the oversubscription (contention) ceiling.
func BenchmarkScaling(b *testing.B) {
	for _, g := range []struct {
		batch           int
		mineff, maxover float64
	}{{16, 0.625, 1.6}, {1, 0.4, 1.6}} {
		b.Run(fmt.Sprintf("ServePushParallel/batch=%d", g.batch), func(b *testing.B) {
			m, reqs := parallelSetup(b)
			n := 0
			perfref.Scale(b, g.mineff, g.maxover, func() {
				n++
				if err := pushParallel(m, reqs, g.batch, n); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
	for _, g := range []struct {
		batch           int
		mineff, maxover float64
	}{{16, 0.4, 1.6}, {1, 0, 1.6}} {
		b.Run(fmt.Sprintf("HTTPPushParallel/batch=%d", g.batch), func(b *testing.B) {
			p := newHTTPParallel(b, g.batch)
			perfref.Scale(b, g.mineff, g.maxover, func() {
				if err := p.op(); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkEvictResume measures one evict→resume cycle of an aged
// session, the cost every push of an hourly-fed deployment pays: one op
// evicts a quickstart alg-b session opened from a 2 000-slot checkpoint
// (snapshot encode, write, fsync and rename through a DirStore) and
// pushes one slot to it (snapshot read and decode, state restore and the
// slot itself). Each op grows the session by one slot, so run it at a
// fixed -benchtime (such as 200x) to compare like with like.
func BenchmarkEvictResume(b *testing.B) {
	store, err := NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(Options{Store: store})
	defer m.Close()
	trace := quickstartTrace(b)
	cp := &stream.Checkpoint{Alg: "alg-b", Slots: make([]stream.SlotRecord, 2000)}
	for i := range cp.Slots {
		cp.Slots[i].Lambda = trace[i%len(trace)]
	}
	const id = "aged"
	if _, err := m.Open(OpenRequest{ID: id, Fleet: quickstartFleet(), Checkpoint: cp}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Evict(id); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Push(id, PushRequest{Lambda: trace[i%len(trace)]}); err != nil {
			b.Fatal(err)
		}
	}
}
