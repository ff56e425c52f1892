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
		l, _, err := wal.Open(walPath, nil, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatalf("opening WAL for torn-batch forge: %v", err)
		}
		for _, ts := range []int{cut + 1, cut + 2} {
			rec := model.SlotInput{T: ts, Lambda: jb.ins.Lambda[ts-1]}
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

// A recovery that cannot save its rebuilt session leaves the log in
// place (RecoverReport.Failed), so the session's next resume must replay
// that log's delta on top of the snapshot: every slot acknowledged after
// the compacting checkpoint lives only in the log. The continuation must
// be bit-identical to an uninterrupted serial feed, and a resume that
// skipped the replay comes back short of the acknowledged count.
func TestFailedRecoveryResumeReplaysWAL(t *testing.T) {
	for _, jb := range crashJobs(t, 7) {
		t.Run(jb.id, func(t *testing.T) {
			want := serialAdvisories(t, jb.spec, jb.ins)
			total := jb.ins.T()
			acked := total * 2 / 3

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
			feedSlots(t, m1, jb, 1, acked, acked/2)
			// Hard stop: m1 is abandoned.

			store2, err := NewDirStore(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			faults := NewFaultStore(store2, FaultConfig{Seed: 1, SaveErrRate: 1})
			m2 := NewManager(Options{Store: faults, WALDir: walDir, WALSync: wal.SyncNever})
			m2.sleepFn = func(time.Duration) {}
			defer m2.Close()
			rep, err := m2.RecoverWAL()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sessions != 0 || !reflect.DeepEqual(rep.Failed, []string{jb.id}) {
				t.Fatalf("recovery report %+v, want %s failed", rep, jb.id)
			}
			if _, err := os.Stat(filepath.Join(walDir, jb.id+".wal")); err != nil {
				t.Fatalf("failed recovery did not leave the log in place: %v", err)
			}

			faults.Disarm()
			info, err := m2.Info(jb.id)
			if err != nil {
				t.Fatal(err)
			}
			if info.Fed != acked {
				t.Fatalf("resumed fed %d want %d", info.Fed, acked)
			}
			post := feedSlots(t, m2, jb, acked+1, total, 0)
			res, err := m2.Delete(jb.id)
			if err != nil {
				t.Fatal(err)
			}
			full := append(append([]stream.Advisory{}, post...), res.Advisories...)
			if !reflect.DeepEqual(full, want[info.Decided:]) {
				t.Fatalf("continuation after resume diverged: %d advisories vs serial %d (from decided=%d)",
					len(full), len(want)-info.Decided, info.Decided)
			}
		})
	}
}

// Resume applies recovery's gap policy: a log that does not continue the
// stored snapshot is quarantined, not replayed past or compacted away,
// and the session goes on from the snapshot with a fresh log that a
// later crash recovers from.
func TestResumeReplayGapQuarantinesWAL(t *testing.T) {
	jb := crashJobs(t, 7)[0]
	fleet := FleetJSON{Scenario: jb.sc, Seed: 7}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := NewDirStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Options{Store: store, WALDir: walDir, WALSync: wal.SyncNever})
	if _, err := m1.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: fleet}); err != nil {
		t.Fatal(err)
	}
	feedSlots(t, m1, jb, 1, 2, 0)
	old, err := m1.Checkpoint(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	// A later checkpoint compacts the log, so it holds slots 5 and 6
	// only; then the store loses that save and serves the slot-2 one.
	feedSlots(t, m1, jb, 3, 6, 4)
	if err := store.Save(old); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(Options{Store: store, WALDir: walDir, WALSync: wal.SyncNever})
	info, err := m2.Info(jb.id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fed != 2 {
		t.Fatalf("resumed fed %d over a gapped log, want the snapshot's 2", info.Fed)
	}
	walPath := filepath.Join(walDir, jb.id+".wal")
	if _, err := os.Stat(walPath + ".corrupt"); err != nil {
		t.Fatalf("gapped log not quarantined: %v", err)
	}
	if got := m2.Metrics().SnapshotCorrupt; got != 1 {
		t.Fatalf("snapshot_corrupt = %d, want 1", got)
	}
	// The session goes on logging: a crash now recovers every slot.
	feedSlots(t, m2, jb, 3, 5, 0)
	m3 := NewManager(Options{Store: store, WALDir: walDir, WALSync: wal.SyncNever})
	defer m3.Close()
	if rep, err := m3.RecoverWAL(); err != nil || rep.Sessions != 1 || rep.Slots != 3 {
		t.Fatalf("recovery after the gap: %+v, %v", rep, err)
	}
	if info, err := m3.Info(jb.id); err != nil || info.Fed != 5 {
		t.Fatalf("recovered %+v, %v; want fed 5", info, err)
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

// A manager under the interval policy sweeps idle logs itself: with a
// WAL clock that never advances, so that no append fsyncs, the log a
// session leaves dirty when its pushes stop is fsynced within two
// intervals, with no SyncWALs call. Close stops the sweep, and a manager
// under another policy runs none.
func TestManagerSweepsIdleIntervalLog(t *testing.T) {
	const every = 100 * time.Millisecond
	jb := crashJobs(t, 7)[0]
	m := NewManager(Options{WALDir: t.TempDir(), WALSync: wal.SyncInterval, WALSyncInterval: every})
	frozen := time.Now()
	m.nowFn = func() time.Time { return frozen }
	if _, err := m.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: FleetJSON{Scenario: jb.sc, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	feedSlots(t, m, jb, 1, 2, 0)
	start := time.Now()
	for walDirty(m, jb.id) {
		if time.Since(start) > 2*every {
			t.Fatalf("an idle dirty log is still unsynced %v after its last push", time.Since(start))
		}
		time.Sleep(every / 20)
	}
	if got := m.Metrics().WALFsyncs; got == 0 {
		t.Fatal("the log is clean but nothing fsynced it")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.flushDone:
	default:
		t.Fatal("the sweep outlived Close")
	}
	always := NewManager(Options{WALDir: t.TempDir(), WALSync: wal.SyncAlways})
	defer always.Close()
	if always.flushStop != nil {
		t.Fatal("a manager under wal.SyncAlways started a sweep")
	}
}

// walDirty reports whether the live session's log holds unsynced writes.
func walDirty(m *Manager, id string) bool {
	sh := m.shardFor(id)
	sh.mu.Lock()
	ls := sh.live[id]
	sh.mu.Unlock()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.wal != nil && ls.wal.Dirty()
}

// A push the session refuses (422) is refused before the WAL append: it
// writes and fsyncs nothing, and the session goes on logging the slots
// it accepts.
func TestRefusedPushesStayOutOfWAL(t *testing.T) {
	walDir := t.TempDir()
	m := NewManager(Options{WALDir: walDir, WALSync: wal.SyncAlways})
	defer m.Close()
	if _, err := m.Open(OpenRequest{ID: "r", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(walDir, "r.wal")
	size := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before, met := size(), m.Metrics()
	// The quickstart fleet has 8 slow servers of capacity 1 and 3 fast
	// ones of capacity 4.
	for i, req := range []PushRequest{
		{Lambda: 3, Counts: []int{9, 3}},
		{Lambda: 3, Counts: []int{8, 4}},
		{Lambda: 21},
		{Lambda: 3, Counts: []int{0, 0}},
		{Lambda: -1},
	} {
		if _, err := m.Push("r", req); !errors.Is(err, ErrBadSlot) {
			t.Fatalf("push %d %+v: %v, want ErrBadSlot", i+1, req, err)
		}
	}
	after := m.Metrics()
	if got := size(); got != before || after.WALAppends != met.WALAppends || after.WALFsyncs != met.WALFsyncs {
		t.Fatalf("5 refused pushes: WAL %d -> %d bytes, wal_appends %d -> %d, wal_fsyncs %d -> %d; want all unchanged",
			before, got, met.WALAppends, after.WALAppends, met.WALFsyncs, after.WALFsyncs)
	}
	if _, err := m.Push("r", PushRequest{Lambda: 3}); err != nil {
		t.Fatal(err)
	}
	if got := size(); got <= before || m.Metrics().WALAppends != met.WALAppends+1 {
		t.Fatalf("an accepted push after the refused ones was not logged (%d bytes)", got)
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
