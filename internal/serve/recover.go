package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/wal"
)

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
	// Corrupt counts files quarantined to <name>.corrupt (undecodable
	// WAL headers or snapshots).
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
// residue of a crash — and folds each into the snapshot store: load the
// session's snapshot (if any), replay the log's delta on top, save the
// merged snapshot, and truncate the log. Recovered sessions are not made
// resident; the next push resumes them from the store like any evicted
// session. Call before serving traffic. A no-op without a WAL dir.
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
		m.recoverOne(path, &rep)
	}
	return rep, nil
}

// quarantineWAL moves an undecodable log aside and counts it.
func (m *Manager) quarantineWAL(path, id string, rep *RecoverReport) {
	if err := quarantine(path); err != nil {
		rep.Failed = append(rep.Failed, id)
		return
	}
	m.stripeFor(id).snapCorrupt.Add(1)
	rep.Corrupt++
}

func (m *Manager) recoverOne(path string, rep *RecoverReport) {
	id := strings.TrimSuffix(filepath.Base(path), ".wal")
	hdrBytes, recs, torn, err := wal.Read(path)
	if err != nil {
		rep.Failed = append(rep.Failed, id)
		return
	}
	if torn {
		m.stripeFor(id).walTorn.Add(1)
		rep.TornTails++
	}
	if hdrBytes == nil {
		// No whole header frame: an empty or stillborn log holds nothing
		// recoverable. Empty files are simply removed; anything else is
		// quarantined for inspection.
		if fi, serr := os.Stat(path); serr == nil && fi.Size() == 0 {
			os.Remove(path)
		} else {
			m.quarantineWAL(path, id, rep)
		}
		return
	}
	var hdr walHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		m.quarantineWAL(path, id, rep)
		return
	}

	// Rebuild the session: snapshot first (when one exists and decodes),
	// else from nothing using the header's identity. A corrupt snapshot
	// was quarantined by the load and reads as missing — the WAL replays
	// onto a fresh session, recovering what the log alone covers.
	snap, ok, err := m.mapCorrupt(id)(m.store.Load(id))
	if err != nil {
		rep.Failed = append(rep.Failed, id)
		return
	}
	var sess *stream.Session
	fleet := hdr.Fleet
	if ok {
		fleet = snap.Fleet
		types, rerr := fleet.Resolve()
		if rerr == nil {
			sess, _, rerr = engine.RestoreSession(snap.Checkpoint, snap.State, types, m.streamOpts())
		}
		if rerr != nil {
			rep.Failed = append(rep.Failed, id)
			return
		}
	} else {
		types, rerr := fleet.Resolve()
		if rerr == nil {
			sess, rerr = engine.OpenSession(hdr.Alg, types, m.streamOpts())
		}
		if rerr != nil {
			// The header names an algorithm or fleet this build cannot
			// construct: not recoverable, and keeping the file would
			// re-fail every restart.
			m.quarantineWAL(path, id, rep)
			return
		}
	}

	delta := make([]stream.DeltaRecord, len(recs))
	for i, r := range recs {
		delta[i] = stream.DeltaRecord{T: r.T, Lambda: r.Lambda, Counts: r.Counts}
	}
	applied, rerr := sess.ReplayDelta(delta)
	if rerr != nil && sess.Err() == nil {
		// A replay gap: the log does not continue the state we rebuilt —
		// typically the snapshot was quarantined as corrupt (so the load
		// read as a clean miss) and the delta starts past slot 1. Saving
		// the rebuilt session would overwrite the id with a near-empty
		// snapshot, and removing the log would destroy the only remaining
		// record of its slots. Persist whatever prefix did replay, then
		// quarantine the log for inspection. (A sticky algorithm failure
		// is different — rerr with sess.Err() set: the failing record is
		// the unacknowledged orphan tail, so the applied prefix below is
		// exactly the acknowledged stream and the normal path is right.)
		if applied > 0 {
			merged := newSnapshot(id, fleet, sess)
			if err := m.saveWithRetry(merged); err != nil {
				rep.Failed = append(rep.Failed, id)
				return
			}
			rep.Slots += applied
		}
		m.quarantineWAL(path, id, rep)
		return
	}

	merged := newSnapshot(id, fleet, sess)
	if err := m.saveWithRetry(merged); err != nil {
		// Leave the WAL in place: the snapshot may be stale but the log
		// still carries the delta, so the next restart retries.
		rep.Failed = append(rep.Failed, id)
		return
	}
	// The merged snapshot is durable; the log is spent. Remove it — a
	// later resume recreates it on attach.
	os.Remove(path)
	m.stripeFor(id).walRecovered.Add(1)
	rep.Sessions++
	rep.Slots += applied
}
