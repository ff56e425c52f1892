package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/stream"
)

// BenchmarkServePush measures the serving layer's overhead over a raw
// stream session: one op opens a managed session, drives the 48-slot
// quickstart trace through Manager.Push (acquire, per-session lock,
// metrics) and deletes it — the manager-path counterpart of the root
// package's BenchmarkStreamSession, without HTTP. Gated by
// scripts/benchsmoke.sh against BENCH_serve.json.
func BenchmarkServePush(b *testing.B) {
	m := NewManager(Options{})
	trace := quickstartTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
			b.Fatal(err)
		}
		for _, lambda := range trace {
			if _, err := m.Push(id, PushRequest{Lambda: lambda}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePushParallel measures aggregate serving throughput: one
// op opens 16 managed sessions and drives the 48-slot quickstart trace
// through all of them concurrently — unbatched (one Manager.Push per
// slot) and batched (Manager.PushBatch in runs of 16 slots). With the
// sharded registry the sessions spread across 16 lock stripes, so on a
// multi-core box the op scales with GOMAXPROCS; the batched variant
// additionally amortizes the acquire/metrics overhead. The batch=1
// variant is gated by scripts/benchsmoke.sh against BENCH_serve.json.
func BenchmarkServePushParallel(b *testing.B) {
	const nSessions = 16
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			m := NewManager(Options{MaxSessions: nSessions + 1, Shards: nSessions})
			trace := quickstartTrace(b)
			reqs := make([]PushRequest, len(trace))
			for i, lambda := range trace {
				reqs[i] = PushRequest{Lambda: lambda}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, nSessions)
				for s := 0; s < nSessions; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						id := fmt.Sprintf("p%d-%d-%d", batch, i, s)
						if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
							errs <- err
							return
						}
						if batch == 1 {
							for _, req := range reqs {
								if _, err := m.Push(id, req); err != nil {
									errs <- err
									return
								}
							}
						} else {
							for start := 0; start < len(reqs); start += batch {
								if _, err := m.PushBatch(id, reqs[start:min(start+batch, len(reqs))]); err != nil {
									errs <- err
									return
								}
							}
						}
						if _, err := m.Delete(id); err != nil {
							errs <- err
						}
					}(s)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvictResume measures one evict→resume cycle of an aged
// session, the cost every push of an hourly-fed deployment pays: one op
// evicts a quickstart alg-b session opened from a 2 000-slot checkpoint
// (snapshot encode, write, fsync and rename through a DirStore) and
// pushes one slot to it (snapshot read and decode, state restore and the
// slot itself). Each op grows the session by one slot, so run it at a
// fixed -benchtime (200x in BENCH_serve.json) to compare like with like.
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
