package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// FaultFS is the WAL-layer sibling of serve.FaultStore: a File factory
// with deterministic, seeded fault injection at the write and sync
// calls. It covers the failure modes a real disk exhibits under a
// write-ahead log:
//
//   - short writes: the write persists a prefix of the frame and
//     reports an error (the honest failure the log's truncate rollback
//     must repair);
//   - torn writes: the write persists a prefix but reports success —
//     the disk lied, and the loss surfaces only as a torn tail on the
//     next open (crash-consistency, not availability);
//   - sync failures: fsync reports an error after the bytes were
//     written, so the push must fail but the log stays parseable.
//
// Determinism: every decision is drawn from a fault.Source keyed by
// (op, file base name), so the chaos differential replays identically
// regardless of goroutine interleaving.
type FaultFS struct {
	src *fault.Source

	mu  sync.Mutex
	cfg FaultConfig

	shortWrites atomic.Uint64
	tornWrites  atomic.Uint64
	syncErrs    atomic.Uint64
}

// FaultConfig tunes a FaultFS. Rates are probabilities in [0, 1].
type FaultConfig struct {
	Seed int64
	// ShortWriteRate fails a write after persisting a deterministic
	// prefix of it, returning an error.
	ShortWriteRate float64
	// TornWriteRate persists a deterministic prefix of a write but
	// reports full success.
	TornWriteRate float64
	// SyncErrRate fails a Sync call with an injected error.
	SyncErrRate float64
}

// FaultFSStats is a FaultFS's injection tally.
type FaultFSStats struct {
	Ops         uint64 // write + sync calls seen
	ShortWrites uint64 // writes failed with partial data
	TornWrites  uint64 // writes silently truncated
	SyncErrs    uint64 // syncs failed by injection
}

// NewFaultFS builds a fault-injecting File factory; pass its Open as
// Options.OpenFile.
func NewFaultFS(cfg FaultConfig) *FaultFS {
	return &FaultFS{src: fault.New(cfg.Seed), cfg: cfg}
}

// Stats snapshots the injection counters.
func (fs *FaultFS) Stats() FaultFSStats {
	return FaultFSStats{
		Ops:         fs.src.Ops(),
		ShortWrites: fs.shortWrites.Load(),
		TornWrites:  fs.tornWrites.Load(),
		SyncErrs:    fs.syncErrs.Load(),
	}
}

// Disarm switches all injection off; chaos tests use it to prove a log
// on a degraded disk heals once the disk does.
func (fs *FaultFS) Disarm() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cfg.ShortWriteRate, fs.cfg.TornWriteRate, fs.cfg.SyncErrRate = 0, 0, 0
}

// Open opens path like the default file layer but wrapped with this
// FaultFS's write/sync injection.
func (fs *FaultFS) Open(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs, name: filepath.Base(path)}, nil
}

// roll draws the deterministic uniform values for this (op, file) call:
// u decides the fault, v sizes a partial write.
func (fs *FaultFS) roll(op, name string) (u, v float64, cfg FaultConfig) {
	d := fs.src.Roll(op, name)
	fs.mu.Lock()
	cfg = fs.cfg
	fs.mu.Unlock()
	return d.Uniform(), d.Uniform(), cfg
}

type faultFile struct {
	File
	fs   *FaultFS
	name string
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	u, v, cfg := f.fs.roll("write", f.name)
	switch {
	case u < cfg.ShortWriteRate:
		f.fs.shortWrites.Add(1)
		n := int(v * float64(len(p)))
		if wn, err := f.File.WriteAt(p[:n], off); err != nil {
			n = wn
		}
		return n, fmt.Errorf("faultfs: injected short write on %s (%d of %d bytes)", f.name, n, len(p))
	case u < cfg.ShortWriteRate+cfg.TornWriteRate:
		f.fs.tornWrites.Add(1)
		n := int(v * float64(len(p)))
		if _, err := f.File.WriteAt(p[:n], off); err != nil {
			return 0, err
		}
		return len(p), nil // the lie: a full write acknowledged, a prefix persisted
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	u, _, cfg := f.fs.roll("sync", f.name)
	if u < cfg.SyncErrRate {
		f.fs.syncErrs.Add(1)
		return fmt.Errorf("faultfs: injected sync failure on %s", f.name)
	}
	return f.File.Sync()
}
