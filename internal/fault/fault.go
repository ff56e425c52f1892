// Package fault is the deterministic draw source behind the fault
// injectors (serve.FaultStore, wal.FaultFS). Every draw is a pure
// function of (seed, op, key, per-(op,key) call ordinal), so the k-th
// Save of a session or the k-th write to a log file sees the same fate
// on every run regardless of goroutine interleaving — the chaos tests
// replay identically under -race and -count=N.
package fault

import (
	"sync"
	"sync/atomic"
)

// Source hands out per-call draw streams. It is safe for concurrent use.
type Source struct {
	seed uint64

	mu    sync.Mutex
	calls map[string]uint64 // op+key -> calls so far

	ops atomic.Uint64
}

// New returns a Source for the given seed.
func New(seed int64) *Source {
	return &Source{seed: uint64(seed), calls: map[string]uint64{}}
}

// Roll counts one (op, key) call and returns its draw stream.
func (s *Source) Roll(op, key string) Draws {
	k := op + "\x00" + key
	s.mu.Lock()
	n := s.calls[k]
	s.calls[k] = n + 1
	s.mu.Unlock()
	s.ops.Add(1)
	return Draws{h: s.seed ^ fnv64(k) ^ (n * 0x9e3779b97f4a7c15)}
}

// Ops is how many calls Roll has counted.
func (s *Source) Ops() uint64 { return s.ops.Load() }

// Draws is one call's stream of independent uniforms.
type Draws struct{ h uint64 }

// Uniform returns the stream's next value in [0, 1).
func (d *Draws) Uniform() float64 {
	d.h = splitmix(d.h)
	return float64(d.h>>11) / (1 << 53)
}

// fnv64 is FNV-1a over s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix advances a splitmix64 state: a cheap, well-mixed hash step
// for deriving independent uniforms from one seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
