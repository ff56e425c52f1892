package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/wal"
)

// crashJob is one algorithm × scenario pair of the crash suite.
type crashJob struct {
	id   string
	sc   string
	spec engine.AlgSpec
	ins  *model.Instance
}

// crashJobs enumerates every streamable algorithm on the two stock
// scenarios the chaos suite uses.
func crashJobs(t *testing.T, seed int64) []crashJob {
	t.Helper()
	var jobs []crashJob
	for _, name := range []string{"quickstart", "onoff"} {
		sc, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		ins := sc.Instance(seed)
		for _, spec := range engine.Algorithms() {
			if !spec.Streamable() {
				continue
			}
			if spec.Skip != nil && spec.Skip(ins) != "" {
				continue
			}
			jobs = append(jobs, crashJob{
				id: fmt.Sprintf("crash-%s-%s", name, spec.Key),
				sc: name, spec: spec, ins: ins,
			})
		}
	}
	return jobs
}

// feedSlots drives slots [from, to] (1-based, inclusive) through a mix
// of single pushes and 3-slot batches, checkpointing once after slot
// ckpt (0 = never), and returns the advisories decided along the way.
func feedSlots(t *testing.T, m *Manager, jb crashJob, from, to, ckpt int) []stream.Advisory {
	t.Helper()
	req := func(ts int) PushRequest {
		r := PushRequest{Lambda: jb.ins.Lambda[ts-1]}
		if jb.ins.Counts != nil {
			r.Counts = jb.ins.Counts[ts-1]
		}
		return r
	}
	var out []stream.Advisory
	checkpointed := ckpt <= 0
	for ts := from; ts <= to; {
		if (ts-from)%5 == 3 && ts+2 <= to {
			results, err := m.PushBatch(jb.id, []PushRequest{req(ts), req(ts + 1), req(ts + 2)})
			if err != nil {
				t.Fatalf("%s: batch at %d: %v", jb.id, ts, err)
			}
			for i := range results {
				if results[i].Decided {
					out = append(out, *results[i].Advisory)
				}
			}
			ts += 3
		} else {
			res, err := m.Push(jb.id, req(ts))
			if err != nil {
				t.Fatalf("%s: slot %d: %v", jb.id, ts, err)
			}
			if res.Decided {
				out = append(out, *res.Advisory)
			}
			ts++
		}
		if !checkpointed && ts > ckpt {
			if _, err := m.Checkpoint(jb.id); err != nil {
				t.Fatalf("%s: checkpoint after %d: %v", jb.id, ts-1, err)
			}
			checkpointed = true
		}
	}
	return out
}

// The crash acceptance test: every streamable algorithm × two stock
// scenarios, each under two crash shapes. "midstream" feeds two thirds
// of the trace (singles and batches, one compacting checkpoint), then
// hard-stops the manager — no Close, no drain, the WAL and the snapshot
// dir are all that survive. "midbatch-torn" additionally forges the
// crash landing inside a batch: two more slots appended to the log
// whose push never returned, the second torn by the crash. A fresh
// manager recovers, and the continuation — advisories, the semi-online
// close tail, the fed count — must be bit-identical to an uninterrupted
// serial feed.
func TestCrashDifferential(t *testing.T) {
	jobs := crashJobs(t, 7)
	if len(jobs) < 8 {
		t.Fatalf("only %d crash jobs; want >= 8", len(jobs))
	}
	for i, jb := range jobs {
		// Split the sync policies across the matrix: both must recover
		// identically here (the process hard-stops but the page cache
		// survives; only power loss distinguishes them).
		sync := wal.SyncAlways
		if i%2 == 1 {
			sync = wal.SyncNever
		}
		t.Run(jb.id+"/"+sync.String(), func(t *testing.T) {
			t.Run("midstream", func(t *testing.T) { runCrash(t, jb, sync, false) })
			t.Run("midbatch-torn", func(t *testing.T) { runCrash(t, jb, sync, true) })
		})
	}
}

func runCrash(t *testing.T, jb crashJob, sync wal.SyncPolicy, tornBatch bool) {
	want := serialAdvisories(t, jb.spec, jb.ins)
	total := jb.ins.T()
	cut := total * 2 / 3
	if cut < 4 || cut+2 >= total {
		t.Fatalf("trace too short for a crash cut: T=%d", total)
	}

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	store1, err := NewDirStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Options{Store: store1, WALDir: walDir, WALSync: sync})
	if _, err := m1.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: FleetJSON{Scenario: jb.sc, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	pre := feedSlots(t, m1, jb, 1, cut, cut/2)
	if len(pre) > len(want) || !reflect.DeepEqual(pre, want[:len(pre)]) {
		t.Fatalf("pre-crash advisories diverged from serial (%d decided)", len(pre))
	}
	// Hard stop: m1 is abandoned — no Close, no drain, no final save.

	wantFed := cut
	if tornBatch {
		walPath := filepath.Join(walDir, jb.id+".wal")
		hdr, _, _, err := wal.Read(walPath)
		if err != nil || hdr == nil {
			t.Fatalf("reading WAL for torn-batch forge: hdr=%v err=%v", hdr, err)
		}
		l, _, err := wal.Open(walPath, hdr, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range []int{cut + 1, cut + 2} {
			rec := wal.Record{T: ts, Lambda: jb.ins.Lambda[ts-1]}
			if jb.ins.Counts != nil {
				rec.Counts = jb.ins.Counts[ts-1]
			}
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		wantFed = cut + 1 // slot cut+2's record is torn away
	}

	store2, err := NewDirStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Options{Store: store2, WALDir: walDir, WALSync: sync})
	defer m2.Close()
	rep, err := m2.RecoverWAL()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1 || len(rep.Failed) != 0 || rep.Corrupt != 0 {
		t.Fatalf("recovery report %+v, want exactly one clean session", rep)
	}
	if tornBatch && rep.TornTails != 1 {
		t.Fatalf("torn tail not reported: %+v", rep)
	}
	info, err := m2.Info(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fed != wantFed {
		t.Fatalf("recovered fed=%d, want %d", info.Fed, wantFed)
	}
	if got := m2.Metrics().WALRecoveredSessions; got != 1 {
		t.Fatalf("wal_recovered_sessions = %d, want 1", got)
	}

	post := feedSlots(t, m2, jb, info.Fed+1, total, 0)
	res, err := m2.Delete(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([]stream.Advisory{}, post...), res.Advisories...)
	wantPost := want[info.Decided:]
	if !reflect.DeepEqual(full, wantPost) {
		t.Fatalf("post-crash stream diverged: %d advisories vs serial %d (from decided=%d)",
			len(full), len(wantPost), info.Decided)
	}
}

// Honest injected WAL faults — short writes and fsync failures — must
// fail the push with nothing fed (rollback) and nothing lost: retries
// land the slot, the stream stays bit-identical, and after a hard stop
// every acknowledged slot is still there (sync=always, honest disk).
func TestWALFaultInjectionNoAckedLoss(t *testing.T) {
	jobs := crashJobs(t, 7)
	jb := jobs[0]
	want := serialAdvisories(t, jb.spec, jb.ins)

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := NewDirStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewFaultFS(wal.FaultConfig{Seed: 11, ShortWriteRate: 0.15, SyncErrRate: 0.15})
	m1 := NewManager(Options{Store: store, WALDir: walDir, WALSync: wal.SyncAlways, WALOpenFile: fs.Open})
	if _, err := m1.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: FleetJSON{Scenario: jb.sc, Seed: 7}}); err != nil {
		t.Fatal(err)
	}

	var got []stream.Advisory
	retries := 0
	for ts := 1; ts <= jb.ins.T(); ts++ {
		req := PushRequest{Lambda: jb.ins.Lambda[ts-1]}
		if jb.ins.Counts != nil {
			req.Counts = jb.ins.Counts[ts-1]
		}
		var res PushResult
		for attempt := 0; ; attempt++ {
			var perr error
			if res, perr = m1.Push(jb.id, req); perr == nil {
				break
			}
			if !errors.Is(perr, ErrStore) || attempt > 50 {
				t.Fatalf("slot %d: %v", ts, perr)
			}
			retries++
		}
		if res.Decided {
			got = append(got, *res.Advisory)
		}
	}
	st := fs.Stats()
	if st.ShortWrites == 0 || st.SyncErrs == 0 || retries == 0 {
		t.Fatalf("fault injection never fired: %+v, %d retries", st, retries)
	}
	if len(got) > len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatalf("advisories diverged under WAL faults (%d decided)", len(got))
	}
	// Hard stop, recover on a healthy disk: the log must carry every
	// acknowledged slot — honest failures rolled back before the ack.
	m2 := NewManager(Options{Store: store, WALDir: walDir})
	defer m2.Close()
	rep, err := m2.RecoverWAL()
	if err != nil || rep.Sessions != 1 {
		t.Fatalf("recovery: %+v, %v", rep, err)
	}
	info, err := m2.Info(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fed != jb.ins.T() {
		t.Fatalf("recovered fed=%d, want %d — acked slots lost under honest faults", info.Fed, jb.ins.T())
	}
	res, err := m2.Delete(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([]stream.Advisory{}, got...), res.Advisories...)
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("stream + close tail diverged after recovery")
	}
}

// Torn WAL writes — the disk acking bytes it never persisted — may lose
// the lied-about suffix, but never consistency: recovery lands on a
// whole-record prefix of what was acknowledged, and the continuation
// from there is bit-identical to serial.
func TestWALTornWriteConsistentPrefix(t *testing.T) {
	jobs := crashJobs(t, 7)
	jb := jobs[1%len(jobs)]
	want := serialAdvisories(t, jb.spec, jb.ins)

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := NewDirStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewFaultFS(wal.FaultConfig{Seed: 23, TornWriteRate: 0.2})
	m1 := NewManager(Options{Store: store, WALDir: walDir, WALSync: wal.SyncAlways, WALOpenFile: fs.Open})
	if _, err := m1.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: FleetJSON{Scenario: jb.sc, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	for ts := 1; ts <= jb.ins.T(); ts++ {
		req := PushRequest{Lambda: jb.ins.Lambda[ts-1]}
		if jb.ins.Counts != nil {
			req.Counts = jb.ins.Counts[ts-1]
		}
		if _, err := m1.Push(jb.id, req); err != nil {
			t.Fatalf("slot %d: %v", ts, err)
		}
	}
	if st := fs.Stats(); st.TornWrites == 0 {
		t.Fatalf("torn-write injection never fired: %+v", st)
	}
	// Hard stop; recover on a healthy disk.
	m2 := NewManager(Options{Store: store, WALDir: walDir})
	defer m2.Close()
	rep, err := m2.RecoverWAL()
	if err != nil || rep.Sessions != 1 {
		t.Fatalf("recovery: %+v, %v", rep, err)
	}
	info, err := m2.Info(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fed < 1 || info.Fed > jb.ins.T() {
		t.Fatalf("recovered fed=%d outside [1, %d]", info.Fed, jb.ins.T())
	}
	if info.Fed == jb.ins.T() {
		t.Fatalf("no slots lost to %d torn writes — injection proves nothing", fs.Stats().TornWrites)
	}
	post := feedSlots(t, m2, jb, info.Fed+1, jb.ins.T(), 0)
	res, err := m2.Delete(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([]stream.Advisory{}, post...), res.Advisories...)
	if !reflect.DeepEqual(full, want[info.Decided:]) {
		t.Fatalf("continuation after torn-write recovery diverged (fed=%d decided=%d)", info.Fed, info.Decided)
	}
}

// A quarantined snapshot leaves the WAL delta starting past slot 1:
// replay onto the fresh session gaps. Recovery must quarantine the log —
// the only remaining record of the session's slots — rather than save a
// near-empty snapshot under the id and delete it.
func TestRecoverReplayGapQuarantinesWAL(t *testing.T) {
	jb := crashJobs(t, 7)[0]

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, "snaps")
	store1, err := NewDirStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Options{Store: store1, WALDir: walDir, WALSync: wal.SyncNever})
	if _, err := m1.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: FleetJSON{Scenario: jb.sc, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint after slot 3 compacts the log, so the surviving delta
	// starts at slot 4 — replayable only on top of the snapshot.
	feedSlots(t, m1, jb, 1, 6, 3)
	// Hard stop; the snapshot rots on disk.
	snapPath := filepath.Join(snapDir, jb.id+".json")
	if err := os.WriteFile(snapPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Options{Store: store2, WALDir: walDir, WALSync: wal.SyncNever})
	defer m2.Close()
	rep, err := m2.RecoverWAL()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 0 || rep.Corrupt != 1 || len(rep.Failed) != 0 {
		t.Fatalf("recovery report %+v, want the gapped log quarantined and no session rebuilt", rep)
	}
	walPath := filepath.Join(walDir, jb.id+".wal")
	if _, err := os.Stat(walPath + ".corrupt"); err != nil {
		t.Fatalf("gapped WAL not quarantined: %v", err)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatalf("original WAL still present: %v", err)
	}
	// The id must read as unknown, not as a silently empty session.
	if _, err := m2.Info(jb.id); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Info after gap recovery = %v, want ErrUnknownSession", err)
	}
}

// SyncWALs flushes the dirty tail of idle interval-policy logs: the
// bounded-loss promise must not depend on a steady append stream.
func TestSyncWALsFlushesIdleIntervalLog(t *testing.T) {
	jb := crashJobs(t, 7)[0]
	walDir := t.TempDir()
	m := NewManager(Options{WALDir: walDir, WALSync: wal.SyncInterval, WALSyncInterval: time.Hour})
	defer m.Close()
	if _, err := m.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: FleetJSON{Scenario: jb.sc, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	feedSlots(t, m, jb, 1, 2, 0)
	if got := m.Metrics().WALFsyncs; got != 0 {
		t.Fatalf("appends under a 1h interval fsynced %d times", got)
	}
	n, err := m.SyncWALs()
	if err != nil || n != 1 {
		t.Fatalf("SyncWALs = (%d, %v), want one dirty log flushed", n, err)
	}
	if got := m.Metrics().WALFsyncs; got != 1 {
		t.Fatalf("wal_fsyncs = %d after the sweep, want 1", got)
	}
	// Nothing dirty left: the sweep is idempotent between pushes.
	if n, err := m.SyncWALs(); err != nil || n != 0 {
		t.Fatalf("second SyncWALs = (%d, %v), want a no-op", n, err)
	}
}

// A checkpoint-open whose store save fails must leave nothing behind
// for the next start: its fresh WAL used to survive with only the
// header, RecoverWAL rebuilt it into an empty session under the id,
// and the client's retried open hit ErrSessionExists.
func TestFailedCheckpointOpenLeavesNoWAL(t *testing.T) {
	jb := crashJobs(t, 7)[0]
	fleet := FleetJSON{Scenario: jb.sc, Seed: 7}

	// The client-held checkpoint the open carries.
	src := NewManager(Options{})
	if _, err := src.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: fleet}); err != nil {
		t.Fatal(err)
	}
	feedSlots(t, src, jb, 1, 5, 0)
	snap, err := src.Checkpoint(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	open := OpenRequest{ID: "ghost", Fleet: fleet, Checkpoint: snap.Checkpoint}

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, "snaps")
	store1, err := NewDirStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Options{
		Store:  NewFaultStore(store1, FaultConfig{Seed: 1, SaveErrRate: 1}),
		WALDir: walDir, WALSync: wal.SyncNever,
	})
	m1.sleepFn = func(time.Duration) {}
	if _, err := m1.Open(open); !errors.Is(err, ErrStore) {
		t.Fatalf("checkpoint open over a dead store: err %v, want ErrStore", err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "ghost.wal")); !os.IsNotExist(err) {
		t.Fatalf("failed open left its WAL behind: %v", err)
	}

	// Restart over the same directories with a healthy store.
	store2, err := NewDirStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Options{Store: store2, WALDir: walDir, WALSync: wal.SyncNever})
	defer m2.Close()
	rep, err := m2.RecoverWAL()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 0 {
		t.Fatalf("recovery report %+v, want no session rebuilt", rep)
	}
	info, err := m2.Open(open)
	if err != nil {
		t.Fatalf("retried open after restart: %v", err)
	}
	if info.Fed != 5 {
		t.Fatalf("retried open: %+v, want the checkpoint's 5 slots", info)
	}
}
