package wal

import (
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// BenchmarkWALAppend measures the per-slot cost of the write-ahead
// path. sync=never is the hot-path figure benchsmoke.sh gates (0
// allocs/op); sync=always is dominated by fsync latency and recorded
// for orientation only.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(model.SlotInput{T: i + 1, Lambda: 123.456, Counts: counts}); err != nil {
					b.Fatal(err)
				}
				if l.Size() > 1<<26 {
					b.StopTimer()
					if err := l.Reset(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
