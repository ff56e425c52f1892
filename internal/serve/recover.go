package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// A session's durable record is the store's snapshot plus the
// write-ahead log's delta past it. A session resumed by a push (acquire)
// and one folded back into the store by startup recovery (RecoverWAL)
// are rebuilt from it by the same code — rebuildLocked builds the
// session, attachWAL opens its log, replayLocked applies the delta under
// one gap policy — and every save, recovery's included, is
// persistLocked's snapshot → save → compact. A recovered session thus
// continues exactly as a resumed one, which makes a crash look like an
// uninterrupted run.

// RecoverReport summarises a startup WAL recovery scan.
type RecoverReport struct {
	// Sessions is how many sessions were rebuilt (snapshot plus WAL
	// delta) and re-checkpointed to the store.
	Sessions int
	// Slots is how many WAL slots were replayed beyond their snapshots —
	// the work a crash would have lost without the log.
	Slots int
	// TornTails counts logs whose torn tail was truncated to the last
	// whole record.
	TornTails int
	// Corrupt counts logs quarantined to <name>.corrupt: undecodable
	// headers, and logs that do not continue their session (replay
	// gaps).
	Corrupt int
	// Failed lists session ids whose recovery failed (store save or read
	// error); their WAL files are left in place for the next attempt.
	Failed []string
}

func (r RecoverReport) String() string {
	return fmt.Sprintf("recovered %d sessions (%d wal slots, %d torn tails, %d quarantined, %d failed)",
		r.Sessions, r.Slots, r.TornTails, r.Corrupt, len(r.Failed))
}

// RecoverWAL scans Options.WALDir for leftover session logs — the
// residue of a crash — and folds each into the snapshot store: rebuild
// the session from its snapshot (if any) and its log, save it, and
// remove the spent log. Recovered sessions are not made resident; the
// next push resumes them from the store like any evicted session. Call
// before serving traffic. A no-op without a WAL dir.
func (m *Manager) RecoverWAL() (RecoverReport, error) {
	var rep RecoverReport
	if !m.walEnabled() {
		return rep, nil
	}
	paths, err := filepath.Glob(filepath.Join(m.opts.WALDir, "*.wal"))
	if err != nil {
		return rep, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		m.recoverLog(strings.TrimSuffix(filepath.Base(path), ".wal"), &rep)
	}
	return rep, nil
}

// recoverLog folds session id's leftover log into the store.
func (m *Manager) recoverLog(id string, rep *RecoverReport) {
	// A corrupt snapshot was quarantined by the load and reads as
	// missing: the log then rebuilds what it alone covers.
	snap, ok, err := m.mapCorrupt(id)(m.store.Load(id))
	if err != nil {
		rep.Failed = append(rep.Failed, id)
		return
	}
	if !ok {
		snap = nil
	}
	ls := &liveSession{id: id}
	r, err := m.rebuildLocked(ls, snap, walAdopt)
	// Recovered sessions are not resident: the log goes once the
	// snapshot is durable, so there is nothing to compact.
	ls.closeWALLocked()
	if r.torn {
		rep.TornTails++
	}
	switch {
	case errors.Is(err, errBadLog):
		// Not recoverable, and keeping the file would re-fail every
		// restart. An empty file — a log whose header never landed — is
		// simply removed; anything else is quarantined for inspection.
		if fi, serr := os.Stat(m.walPath(id)); serr == nil && fi.Size() == 0 {
			os.Remove(m.walPath(id))
		} else if m.quarantineWAL(id) == nil {
			rep.Corrupt++
		} else {
			rep.Failed = append(rep.Failed, id)
		}
		return
	case err != nil:
		// Leave the log in place: the store may be stale, but the log
		// still carries the delta, so the next restart retries.
		rep.Failed = append(rep.Failed, id)
		return
	case r.gapped:
		rep.Slots += r.applied
		rep.Corrupt++
		return
	}
	if err := m.persistLocked(ls, true); err != nil {
		rep.Failed = append(rep.Failed, id)
		return
	}
	os.Remove(m.walPath(id))
	m.stripeFor(id).walRecovered.Add(1)
	rep.Sessions++
	rep.Slots += r.applied
}

// errBadLog marks a session log that names no session this build can
// rebuild: no header frame, an undecodable header, or an algorithm or
// fleet that does not construct.
var errBadLog = errors.New("serve: wal names no session to rebuild")

// rebuilt reports what rebuildLocked did.
type rebuilt struct {
	replayed int  // snapshot log slots replayed (0 when its saved state was restored)
	torn     bool // the session log's torn tail was repaired
	applied  int  // session-log records replayed past the snapshot
	gapped   bool // the log did not continue the session (see replayLocked)
}

// rebuildLocked is the one path from a session's durable record to a
// live stream.Session, shared by resume and startup recovery. The
// caller holds ls.mu on a session no one else can use yet. snap is the
// store's snapshot of ls.id, or nil when the store has none: the session
// then opens fresh from the identity in its log's header, which only
// recovery (how == walAdopt) can read. With a WAL configured the log is
// attached and its delta replayed; it stays attached unless the replay
// gapped. Log I/O failures are ErrStore; a header that names nothing to
// rebuild is errBadLog.
func (m *Manager) rebuildLocked(ls *liveSession, snap *Snapshot, how walAttach) (r rebuilt, err error) {
	if snap != nil {
		if r.replayed, err = m.buildLocked(ls, snap.alg(), snap.Fleet, snap); err != nil {
			return r, err
		}
	}
	stats, err := m.attachWAL(ls, how)
	if errors.Is(err, wal.ErrNoHeader) {
		return r, fmt.Errorf("%w: %v", errBadLog, err)
	}
	if err != nil {
		return r, fmt.Errorf("%w: wal: %v", ErrStore, err)
	}
	r.torn = stats.Torn
	if snap == nil {
		var hdr walHeader
		err := json.Unmarshal(stats.Header, &hdr)
		if err == nil {
			_, err = m.buildLocked(ls, hdr.Alg, hdr.Fleet, nil)
		}
		if err != nil {
			ls.closeWALLocked()
			return r, fmt.Errorf("%w: %v", errBadLog, err)
		}
	}
	r.applied, r.gapped, err = m.replayLocked(ls, stats.Records)
	return r, err
}

// buildLocked makes ls's session and records its identity on ls: from a
// snapshot, by resolving the fleet and then restoring the saved state or
// replaying the log (replayed counts the slots replayed), and without
// one as a fresh session of alg. Open, resume and recovery all build
// sessions here.
//
// Only a snapshot that holds its log as stored bytes restores: the
// store's load checked its log sum, which vouches that the state covers
// exactly that log, so the session is restored from the state alone and
// keeps the bytes as its span, decoding none of them. Any other
// snapshot, and one whose state does not restore, has its log decoded
// and replayed.
func (m *Manager) buildLocked(ls *liveSession, alg string, fleet FleetJSON, snap *Snapshot) (replayed int, err error) {
	types, err := fleet.Resolve()
	if err != nil {
		return 0, err
	}
	if _, ok := solver.LatticeCells(types, solver.MaxLatticeCells); !ok {
		return 0, fmt.Errorf("%w: more than %d configurations", ErrFleetTooLarge, solver.MaxLatticeCells)
	}
	ls.span = wire.EmptyLogSpan()
	switch {
	case snap == nil:
		ls.sess, err = engine.OpenSession(alg, types, stream.Options{})
	case snap.log != nil && len(snap.log.tail) == 0:
		if ls.sess, err = engine.RestoreSessionFromState(alg, snap.State, types, stream.Options{}); err == nil {
			ls.span = snap.log.span
			break
		}
		fallthrough
	default:
		var cp *stream.Checkpoint
		if cp, err = snap.Log(); err == nil {
			ls.sess, err = engine.ResumeSession(cp, types, stream.Options{})
			replayed = cp.Len()
		}
	}
	if err != nil {
		return 0, err
	}
	if spec, ok := engine.LookupAlgorithm(alg); ok {
		alg = spec.Key
	}
	ls.alg, ls.fleet = alg, fleet
	return replayed, nil
}

// replayLocked applies a session log's delta to ls.sess: the one replay
// of resume and recovery, under one gap policy. Replay is tolerant
// (stream.Session.ReplayDelta skips duplicates and validation orphans),
// and a sticky algorithm failure stops it with the acknowledged stream
// applied — the failing record is the unacknowledged orphan tail, so
// the session stands exactly where the live one failed. A gap is
// different: the log does not continue the session — typically the
// snapshot was quarantined as corrupt and the delta starts past slot 1 —
// so it holds slots the session can no longer take. Compacting it away
// would destroy the only record of them, so the prefix that did replay
// is persisted and the log is quarantined for inspection (gapped). err
// is a persist or quarantine failure, which leaves the log in place.
func (m *Manager) replayLocked(ls *liveSession, recs []model.SlotInput) (applied int, gapped bool, err error) {
	applied, rerr := ls.sess.ReplayDelta(recs)
	if rerr == nil || ls.sess.Err() != nil {
		return applied, false, nil
	}
	ls.closeWALLocked()
	if applied > 0 {
		if err := m.persistLocked(ls, true); err != nil {
			return applied, true, fmt.Errorf("%w: %v", ErrStore, err)
		}
	}
	if err := m.quarantineWAL(ls.id); err != nil {
		return applied, true, fmt.Errorf("%w: %v", ErrStore, err)
	}
	return applied, true, nil
}
