package wal

import (
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/perfref"
)

// walAppendRatio is BenchmarkWALAppend/sync=never's wall-time gate (see
// perfref.Gate): ns/op over the reference task's, recorded on a 2-vCPU
// Xeon @ 2.1 GHz, Go 1.24, 2026-10-17.
const walAppendRatio = 0.000757

// BenchmarkWALAppend measures the per-slot cost of the write-ahead
// path. sync=never is the hot-path figure: a page-cache write plus the
// encode, wall-gated, and held at 0 allocs/op by TestAppendZeroAllocs.
// sync=always is dominated by fsync latency and recorded for
// orientation only.
func BenchmarkWALAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		sync SyncPolicy
	}{
		{"sync=never", SyncNever},
		{"sync=always", SyncAlways},
	} {
		b.Run(tc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.wal")
			l, _, err := Open(path, []byte(`{"alg":"lcp"}`), Options{Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			counts := []int{48, 32, 16}
			t := 0
			op := func() {
				t++
				if _, err := l.Append(model.SlotInput{T: t, Lambda: 123.456, Counts: counts}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
				if l.Size() > 1<<26 {
					b.StopTimer()
					if err := l.Reset(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			if tc.sync == SyncNever {
				perfref.Gate(b, walAppendRatio, op)
			}
		})
	}
}
