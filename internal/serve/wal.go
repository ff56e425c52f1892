package serve

import (
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/wal"
)

// walHeader is the identity frame at the start of every session WAL:
// enough to rebuild the session from nothing (algorithm plus fleet
// descriptor) when the snapshot store has no record of it. It is
// encoded with encoding/json — the header is written once per log, so
// the hand-rolled codec buys nothing here.
type walHeader struct {
	Alg   string    `json:"alg"`
	Fleet FleetJSON `json:"fleet"`
}

func (m *Manager) walEnabled() bool { return m.opts.WALDir != "" }

// walPath maps a session id onto its log file. Ids pass validID before
// they reach here, so the id is safe as a file name.
func (m *Manager) walPath(id string) string {
	return filepath.Join(m.opts.WALDir, id+".wal")
}

func (m *Manager) walOptions() wal.Options {
	return wal.Options{
		Sync:         m.opts.WALSync,
		SyncInterval: m.opts.WALSyncInterval,
		Now:          m.nowFn,
		OpenFile:     m.opts.WALOpenFile,
	}
}

// walAttach selects how attachWAL treats the header already on disk.
type walAttach int

const (
	// walResume requires the session's own header: a log left by an
	// earlier incarnation of the id is reset and its records dropped.
	walResume walAttach = iota
	// walFresh is walResume for a newly opened session, which also drops
	// leftover records under a matching header: the store has just
	// verified the id unused, so they belong to a deleted session whose
	// log removal did not complete.
	walFresh
	// walAdopt takes the header on disk as it is: recovery learns from it
	// the identity of a session that was never snapshotted.
	walAdopt
)

// attachWAL opens the session's write-ahead log and hangs it on ls; the
// caller holds ls.mu. Every log is opened here, through wal.Open, so a
// torn tail is repaired and counted in one place. It returns what the
// open found: the header and the records to replay. A no-op when the
// WAL is disabled.
func (m *Manager) attachWAL(ls *liveSession, how walAttach) (wal.ScanStats, error) {
	if !m.walEnabled() {
		return wal.ScanStats{}, nil
	}
	var hdr []byte
	if how != walAdopt {
		var err error
		if hdr, err = json.Marshal(walHeader{Alg: ls.alg, Fleet: ls.fleet}); err != nil {
			return wal.ScanStats{}, err
		}
	}
	l, stats, err := wal.Open(m.walPath(ls.id), hdr, m.walOptions())
	if err != nil {
		return stats, err
	}
	if stats.Torn {
		m.stripeFor(ls.id).walTorn.Add(1)
	}
	if how == walFresh && len(stats.Records) > 0 {
		if err := l.Reset(); err != nil {
			l.Close()
			return stats, err
		}
		stats.Records = nil
	}
	ls.wal = l
	return stats, nil
}

// compactWALLocked truncates the session's log after a successful
// snapshot save: everything in it is now covered by the snapshot. A
// failed truncate is ignored — stale records are skipped on replay, so
// the log is merely larger than it needs to be.
func (ls *liveSession) compactWALLocked() {
	if ls.wal != nil {
		ls.wal.Reset()
	}
}

// closeWALLocked releases the session's log handle (the file stays).
func (ls *liveSession) closeWALLocked() {
	if ls.wal != nil {
		ls.wal.Close()
		ls.wal = nil
	}
}

// SyncWALs fsyncs every live session's dirty log, regardless of sync
// policy. Append only fsyncs when appends arrive, so without this sweep
// an idle session under SyncInterval would keep its unsynced tail dirty
// indefinitely and the policy's bounded-loss promise would only hold
// under a steady push stream; a manager under SyncInterval runs it on
// the interval cadence (sweepWALs). Sessions mid-push are skipped — their own append path syncs
// by policy, and the next sweep retries. Returns how many logs were
// fsynced and the first sync error.
func (m *Manager) SyncWALs() (int, error) {
	if !m.walEnabled() {
		return 0, nil
	}
	synced := 0
	var firstErr error
	var cands []*liveSession
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		cands = cands[:0]
		for _, ls := range sh.live {
			cands = append(cands, ls)
		}
		sh.mu.Unlock()
		for _, ls := range cands {
			if !ls.mu.TryLock() {
				continue
			}
			if !ls.gone && ls.wal != nil && ls.wal.Dirty() {
				if err := ls.wal.Sync(); err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					m.stripeFor(ls.id).walFsyncs.Add(1)
					synced++
				}
			}
			ls.mu.Unlock()
		}
	}
	return synced, firstErr
}

// sweepWALs runs SyncWALs every interval until Close stops it. A failed
// fsync is logged, and the next sweep retries the log.
func (m *Manager) sweepWALs(every time.Duration) {
	defer close(m.flushDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-m.flushStop:
			return
		case <-tick.C:
			if _, err := m.SyncWALs(); err != nil {
				log.Printf("serve: wal flush: %v", err)
			}
		}
	}
}

// removeWAL deletes a session's log file, for the delete path — the id
// is gone, so its history must not resurrect it.
func (m *Manager) removeWAL(id string) {
	if m.walEnabled() {
		os.Remove(m.walPath(id))
	}
}

// quarantineWAL moves a session's log aside to <id>.wal.corrupt for
// inspection and counts it; the caller has closed its handle.
func (m *Manager) quarantineWAL(id string) error {
	if err := quarantine(m.walPath(id)); err != nil {
		return err
	}
	m.stripeFor(id).snapCorrupt.Add(1)
	return nil
}
