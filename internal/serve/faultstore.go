package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// FaultStore wraps a SnapshotStore with deterministic, seeded fault
// injection: per-operation error rates, injected latency, and torn
// writes (a Save that fails *after* persisting a corrupted snapshot —
// the crash-mid-write case an atomic-rename store is supposed to make
// impossible, injected here on purpose so the manager's shadowing and
// retry logic is proven against it). The chaos suite
// (chaos_test.go) drives the manager through one and requires served
// advisories to stay bit-identical to a fault-free serial feed.
//
// Determinism: every decision is drawn from a fault.Source keyed by
// (op, id), so a session's k-th Save sees the same fate on every run
// regardless of goroutine interleaving.
type FaultStore struct {
	inner SnapshotStore
	src   *fault.Source

	mu  sync.Mutex
	cfg FaultConfig

	saveErrs  atomic.Uint64
	loadErrs  atomic.Uint64
	tornSaves atomic.Uint64
}

// FaultConfig tunes a FaultStore. Rates are probabilities in [0, 1].
type FaultConfig struct {
	Seed int64
	// SaveErrRate / LoadErrRate / DeleteErrRate fail the operation with
	// an injected error.
	SaveErrRate   float64
	LoadErrRate   float64
	DeleteErrRate float64
	// TornWriteRate is the fraction of *failed* saves that additionally
	// persist a corrupted snapshot (checkpoint truncated to half its
	// slots) before reporting the error.
	TornWriteRate float64
	// MaxLatency sleeps a deterministic per-call duration in
	// [0, MaxLatency) before every operation; 0 disables.
	MaxLatency time.Duration

	// Sleep replaces time.Sleep for latency injection (test hook; nil
	// means time.Sleep).
	Sleep func(time.Duration)
}

// FaultStats is a FaultStore's injection tally.
type FaultStats struct {
	Ops       uint64 // total operations seen
	SaveErrs  uint64 // saves failed by injection
	LoadErrs  uint64 // loads failed by injection
	TornSaves uint64 // failed saves that left a torn snapshot behind
}

// NewFaultStore wraps inner with the given fault profile.
func NewFaultStore(inner SnapshotStore, cfg FaultConfig) *FaultStore {
	return &FaultStore{inner: inner, src: fault.New(cfg.Seed), cfg: cfg}
}

// Stats snapshots the injection counters.
func (s *FaultStore) Stats() FaultStats {
	return FaultStats{
		Ops:       s.src.Ops(),
		SaveErrs:  s.saveErrs.Load(),
		LoadErrs:  s.loadErrs.Load(),
		TornSaves: s.tornSaves.Load(),
	}
}

// Disarm switches all injection off (rates and latency to zero) —
// chaos tests use it to prove a degraded store heals without losing
// sessions.
func (s *FaultStore) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.SaveErrRate, s.cfg.LoadErrRate, s.cfg.DeleteErrRate = 0, 0, 0
	s.cfg.TornWriteRate, s.cfg.MaxLatency = 0, 0
}

// roll draws the deterministic uniform values for this (op, id) call:
// u decides the error, v the torn write, and the latency is derived
// from a third draw.
func (s *FaultStore) roll(op, id string) (u, v float64, latency time.Duration) {
	d := s.src.Roll(op, id)
	s.mu.Lock()
	maxLatency := s.cfg.MaxLatency
	s.mu.Unlock()
	u, v = d.Uniform(), d.Uniform()
	if maxLatency > 0 {
		latency = time.Duration(d.Uniform() * float64(maxLatency))
	}
	return u, v, latency
}

func (s *FaultStore) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.cfg.Sleep != nil {
		s.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Save implements SnapshotStore with injected latency, errors and torn
// writes.
func (s *FaultStore) Save(snap *Snapshot) error {
	u, v, lat := s.roll("save", snap.ID)
	s.sleep(lat)
	s.mu.Lock()
	saveRate, tornRate := s.cfg.SaveErrRate, s.cfg.TornWriteRate
	s.mu.Unlock()
	if u < saveRate {
		s.saveErrs.Add(1)
		if v < tornRate {
			s.tornSaves.Add(1)
			// A torn write: persist a corrupted snapshot, then fail.
			// The truncation must not alias the caller's checkpoint, and
			// it keeps the log sum, which no longer matches.
			torn := *snap
			if cp, err := snap.Log(); err == nil && cp != nil {
				half := *cp
				half.Slots, half.Log = cp.Records(), nil
				half.Slots = half.Slots[:len(half.Slots)/2]
				torn.Checkpoint, torn.log = &half, nil
			}
			_ = s.inner.Save(&torn)
		}
		return fmt.Errorf("faultstore: injected save failure for %q", snap.ID)
	}
	return s.inner.Save(snap)
}

// Load implements SnapshotStore with injected latency and errors.
func (s *FaultStore) Load(id string) (*Snapshot, bool, error) {
	u, _, lat := s.roll("load", id)
	s.sleep(lat)
	s.mu.Lock()
	loadRate := s.cfg.LoadErrRate
	s.mu.Unlock()
	if u < loadRate {
		s.loadErrs.Add(1)
		return nil, false, fmt.Errorf("faultstore: injected load failure for %q", id)
	}
	return s.inner.Load(id)
}

// Delete implements SnapshotStore with injected latency and errors.
func (s *FaultStore) Delete(id string) error {
	u, _, lat := s.roll("delete", id)
	s.sleep(lat)
	s.mu.Lock()
	delRate := s.cfg.DeleteErrRate
	s.mu.Unlock()
	if u < delRate {
		return fmt.Errorf("faultstore: injected delete failure for %q", id)
	}
	return s.inner.Delete(id)
}
