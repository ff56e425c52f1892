package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

func testRecords(n int) []model.SlotInput {
	recs := make([]model.SlotInput, n)
	for i := range recs {
		recs[i] = model.SlotInput{T: i + 1, Lambda: float64(i) * 1.5}
		if i%3 == 0 {
			recs[i].Counts = []int{i + 2, i}
		}
	}
	return recs
}

func mustOpen(t *testing.T, path string, header []byte, opts Options) (*Log, ScanStats) {
	t.Helper()
	l, stats, err := Open(path, header, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, stats
}

func appendAll(t *testing.T, l *Log, recs []model.SlotInput) {
	t.Helper()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatalf("Append(%+v): %v", rec, err)
		}
	}
}

// read inspects the log file at path without opening it: the header
// payload (nil when the first frame is not a valid header), the valid
// slot records, and whether bytes trail the valid prefix (a torn tail
// the next Open repairs).
func read(path string) (header []byte, recs []model.SlotInput, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	hdr, recs, consumed := parseFrames(data)
	return hdr, recs, consumed < int64(len(data)), nil
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s1.wal")
	hdr := []byte(`{"alg":"lcp","fleet":{}}`)
	recs := testRecords(17)

	l, stats := mustOpen(t, path, hdr, Options{Sync: SyncAlways})
	if len(stats.Records) != 0 || stats.Torn || stats.Rewritten {
		t.Fatalf("fresh open: unexpected stats %+v", stats)
	}
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	gotHdr, gotRecs, torn, err := read(path)
	if err != nil || torn {
		t.Fatalf("Read: err=%v torn=%v", err, torn)
	}
	if string(gotHdr) != string(hdr) {
		t.Fatalf("header %q != %q", gotHdr, hdr)
	}
	if !reflect.DeepEqual(gotRecs, recs) {
		t.Fatalf("records %+v != %+v", gotRecs, recs)
	}

	l2, stats2 := mustOpen(t, path, hdr, Options{Sync: SyncNever})
	defer l2.Close()
	if !reflect.DeepEqual(stats2.Records, recs) || stats2.Torn || stats2.Rewritten {
		t.Fatalf("reopen stats %+v", stats2)
	}
}

func TestLogTornTailTruncation(t *testing.T) {
	hdr := []byte("h")
	recs := testRecords(9)
	// chop k trailing bytes for several k and verify the longest valid
	// prefix comes back and a re-append after repair parses cleanly.
	for _, chop := range []int{1, 3, 7, 12, 25} {
		path := filepath.Join(t.TempDir(), "torn.wal")
		l, _ := mustOpen(t, path, hdr, Options{Sync: SyncNever})
		appendAll(t, l, recs)
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-int64(chop)); err != nil {
			t.Fatal(err)
		}

		_, _, torn, err := read(path)
		if err != nil || !torn {
			t.Fatalf("chop %d: Read err=%v torn=%v", chop, err, torn)
		}
		l2, stats := mustOpen(t, path, hdr, Options{Sync: SyncAlways})
		if !stats.Torn || stats.TornBytes == 0 {
			t.Fatalf("chop %d: expected torn repair, got %+v", chop, stats)
		}
		if len(stats.Records) >= len(recs) {
			t.Fatalf("chop %d: no record dropped (%d)", chop, len(stats.Records))
		}
		if !reflect.DeepEqual(stats.Records, recs[:len(stats.Records)]) {
			t.Fatalf("chop %d: recovered records are not a prefix", chop)
		}
		next := model.SlotInput{T: len(stats.Records) + 1, Lambda: 42}
		if _, err := l2.Append(next); err != nil {
			t.Fatalf("chop %d: append after repair: %v", chop, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, gotRecs, torn, err := read(path)
		if err != nil || torn {
			t.Fatalf("chop %d: reread err=%v torn=%v", chop, err, torn)
		}
		want := append(append([]model.SlotInput{}, recs[:len(stats.Records)]...), next)
		if !reflect.DeepEqual(gotRecs, want) {
			t.Fatalf("chop %d: after re-append got %+v want %+v", chop, gotRecs, want)
		}
	}
}

func TestLogCorruptMiddleStopsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.wal")
	hdr := []byte("h")
	recs := testRecords(6)
	l, _ := mustOpen(t, path, hdr, Options{Sync: SyncNever})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte just past the midpoint: everything from the frame it
	// lands in onward must be dropped.
	data[len(data)/2+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, gotRecs, torn, err := read(path)
	if err != nil || !torn {
		t.Fatalf("Read err=%v torn=%v", err, torn)
	}
	if len(gotRecs) >= len(recs) {
		t.Fatalf("corruption not detected: %d records", len(gotRecs))
	}
	if !reflect.DeepEqual(gotRecs, recs[:len(gotRecs)]) {
		t.Fatalf("recovered records are not a prefix")
	}
}

func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	hdr := []byte("header-blob")
	l, _ := mustOpen(t, path, hdr, Options{Sync: SyncAlways})
	appendAll(t, l, testRecords(5))
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	gotHdr, gotRecs, torn, err := read(path)
	if err != nil || torn {
		t.Fatalf("Read err=%v torn=%v", err, torn)
	}
	if string(gotHdr) != string(hdr) || len(gotRecs) != 0 {
		t.Fatalf("after reset: header %q records %d", gotHdr, len(gotRecs))
	}
	// The log keeps working after compaction.
	if _, err := l.Append(model.SlotInput{T: 6, Lambda: 1}); err != nil {
		t.Fatalf("Append after Reset: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, gotRecs, _, err = read(path)
	if err != nil || len(gotRecs) != 1 || gotRecs[0].T != 6 {
		t.Fatalf("after reset+append: %v %+v", err, gotRecs)
	}
}

func TestLogHeaderMismatchResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.wal")
	l, _ := mustOpen(t, path, []byte("incarnation-1"), Options{Sync: SyncNever})
	appendAll(t, l, testRecords(4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, stats := mustOpen(t, path, []byte("incarnation-2"), Options{Sync: SyncNever})
	defer l2.Close()
	if !stats.Rewritten || len(stats.Records) != 0 {
		t.Fatalf("mismatched header: stats %+v", stats)
	}
	gotHdr, gotRecs, _, err := read(path)
	if err != nil || string(gotHdr) != "incarnation-2" || len(gotRecs) != 0 {
		t.Fatalf("after rewrite: %v %q %d", err, gotHdr, len(gotRecs))
	}
}

// Open with no header adopts the one on disk — repairing a torn tail
// like any open — and leaves a file without one untouched.
func TestOpenAdoptsHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adopt.wal")
	l, _ := mustOpen(t, path, []byte("incarnation-1"), Options{Sync: SyncNever})
	appendAll(t, l, testRecords(4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	l2, stats := mustOpen(t, path, nil, Options{Sync: SyncNever})
	if string(stats.Header) != "incarnation-1" || stats.Rewritten || !stats.Torn {
		t.Fatalf("adopting open: stats %+v", stats)
	}
	if !reflect.DeepEqual(stats.Records, testRecords(3)) {
		t.Fatalf("adopting open kept %d records, want the 3 whole ones", len(stats.Records))
	}
	l2.Close()
	if _, _, torn, err := read(path); err != nil || torn {
		t.Fatalf("torn tail not repaired by the adopting open: torn=%v err=%v", torn, err)
	}

	for _, data := range [][]byte{nil, []byte("no header frame here")} {
		bad := filepath.Join(t.TempDir(), "bad.wal")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(bad, nil, Options{Sync: SyncNever}); !errors.Is(err, ErrNoHeader) {
			t.Fatalf("adopting open of %q: err %v, want ErrNoHeader", data, err)
		}
		if got, err := os.ReadFile(bad); err != nil || string(got) != string(data) {
			t.Fatalf("headerless file changed to %q (%v)", got, err)
		}
	}
}

// countFile counts Sync calls through the seam.
type countFile struct {
	File
	syncs *int
}

func (f countFile) Sync() error { *f.syncs++; return f.File.Sync() }

func countingOpts(syncs *int, opts Options) Options {
	opts.OpenFile = func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		return countFile{File: f, syncs: syncs}, nil
	}
	return opts
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		syncs := 0
		path := filepath.Join(t.TempDir(), "a.wal")
		l, _ := mustOpen(t, path, []byte("h"), countingOpts(&syncs, Options{Sync: SyncAlways}))
		base := syncs // header write syncs once
		for i := 1; i <= 5; i++ {
			synced, err := l.Append(model.SlotInput{T: i})
			if err != nil || !synced {
				t.Fatalf("append %d: synced=%v err=%v", i, synced, err)
			}
		}
		if syncs-base != 5 {
			t.Fatalf("always: %d syncs for 5 appends", syncs-base)
		}
		l.Close()
	})
	t.Run("never", func(t *testing.T) {
		syncs := 0
		path := filepath.Join(t.TempDir(), "n.wal")
		l, _ := mustOpen(t, path, []byte("h"), countingOpts(&syncs, Options{Sync: SyncNever}))
		for i := 1; i <= 5; i++ {
			synced, err := l.Append(model.SlotInput{T: i})
			if err != nil || synced {
				t.Fatalf("append %d: synced=%v err=%v", i, synced, err)
			}
		}
		l.Close()
		if syncs != 0 {
			t.Fatalf("never: %d syncs", syncs)
		}
	})
	t.Run("interval", func(t *testing.T) {
		syncs := 0
		now := time.Unix(0, 0)
		clock := func() time.Time { return now }
		path := filepath.Join(t.TempDir(), "i.wal")
		opts := countingOpts(&syncs, Options{Sync: SyncInterval, SyncInterval: time.Second, Now: clock})
		l, _ := mustOpen(t, path, []byte("h"), opts)
		base := syncs
		for i := 1; i <= 10; i++ {
			now = now.Add(300 * time.Millisecond)
			if _, err := l.Append(model.SlotInput{T: i}); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		// Appends land at 0.3s steps; with a 1s interval the elapsed
		// check fires at t=1.2s and t=2.4s: 2 syncs, not 10.
		if got := syncs - base; got != 2 {
			t.Fatalf("interval: %d syncs, want 2", got)
		}
		l.Close()
	})
}

func TestShortWriteRollsBack(t *testing.T) {
	fs := NewFaultFS(FaultConfig{Seed: 42, ShortWriteRate: 1})
	path := filepath.Join(t.TempDir(), "short.wal")
	_, _, err := Open(path, []byte("h"), Options{Sync: SyncNever, OpenFile: fs.Open})
	if err == nil {
		// Header write itself may fail; if it somehow succeeded the
		// injection is broken.
		t.Fatalf("expected header write to fail under ShortWriteRate=1")
	}
	fs.Disarm()
	l, _ := mustOpen(t, path, []byte("h"), Options{Sync: SyncNever, OpenFile: fs.Open})
	fs.mu.Lock()
	fs.cfg.ShortWriteRate = 1
	fs.mu.Unlock()
	if _, err := l.Append(model.SlotInput{T: 1}); err == nil {
		t.Fatal("expected injected short-write failure")
	}
	size := l.Size()
	fs.Disarm()
	if _, err := l.Append(model.SlotInput{T: 1}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if l.Size() <= size {
		t.Fatal("append after heal did not grow the log")
	}
	l.Close()
	_, recs, torn, err := read(path)
	if err != nil || torn || len(recs) != 1 {
		t.Fatalf("after rollback+retry: err=%v torn=%v recs=%d", err, torn, len(recs))
	}
	if fs.Stats().ShortWrites == 0 {
		t.Fatal("no short writes counted")
	}
}

func TestTornWriteSurfacesOnReopen(t *testing.T) {
	fs := NewFaultFS(FaultConfig{Seed: 7, TornWriteRate: 0})
	path := filepath.Join(t.TempDir(), "torninj.wal")
	l, _ := mustOpen(t, path, []byte("h"), Options{Sync: SyncNever, OpenFile: fs.Open})
	appendAll(t, l, testRecords(3))
	// Arm torn writes for the 4th record only.
	fs.mu.Lock()
	fs.cfg.TornWriteRate = 1
	fs.mu.Unlock()
	if _, err := l.Append(model.SlotInput{T: 4, Lambda: 9}); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	fs.Disarm()
	l.Close()
	_, recs, torn, err := read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn && len(recs) == 4 {
		// A zero-length tear (v rounded to the full frame is impossible:
		// n < len(p) always since v < 1) would mean injection failed.
		t.Fatal("torn write left a fully valid log")
	}
	if len(recs) > 3 {
		t.Fatalf("torn record parsed as valid: %d records", len(recs))
	}
	if !reflect.DeepEqual(recs, testRecords(3)[:len(recs)]) {
		t.Fatal("recovered records are not a prefix")
	}
	if fs.Stats().TornWrites != 1 {
		t.Fatalf("torn writes counted %d", fs.Stats().TornWrites)
	}
}

func TestSyncErrRollsBackRecord(t *testing.T) {
	fs := NewFaultFS(FaultConfig{Seed: 11})
	path := filepath.Join(t.TempDir(), "syncerr.wal")
	l, _ := mustOpen(t, path, []byte("h"), Options{Sync: SyncAlways, OpenFile: fs.Open})
	appendAll(t, l, testRecords(2))
	size := l.Size()
	fs.mu.Lock()
	fs.cfg.SyncErrRate = 1
	fs.mu.Unlock()
	if _, err := l.Append(model.SlotInput{T: 3, Lambda: 5}); err == nil {
		t.Fatal("expected injected sync failure")
	}
	// The unacknowledged frame must not survive the failure: the slot
	// index is server-assigned, so the next acknowledged push reuses it,
	// and replay is first-wins on duplicates — a leftover frame would
	// shadow the acked payload after a crash.
	if l.Size() != size {
		t.Fatalf("failed sync left the log at %d bytes, want rollback to %d", l.Size(), size)
	}
	fs.Disarm()
	// The retry carries different data (the client recomputed the slot);
	// the retried payload, not the failed one, must be what replay sees.
	if _, err := l.Append(model.SlotInput{T: 3, Lambda: 7}); err != nil {
		t.Fatalf("retry after sync failure: %v", err)
	}
	l.Close()
	_, recs, torn, err := read(path)
	if err != nil || torn {
		t.Fatalf("err=%v torn=%v", err, torn)
	}
	if len(recs) != 3 || recs[2].T != 3 || recs[2].Lambda != 7 {
		t.Fatalf("expected exactly one T=3 record with the retried payload, got %+v", recs)
	}
}

func TestOversizedHeaderRejectedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bighdr.wal")
	hdr := make([]byte, maxFrameLen) // +1 type byte pushes the frame past the limit
	if _, _, err := Open(path, hdr, Options{Sync: SyncNever}); err == nil {
		t.Fatal("an over-limit header must be rejected at Open, not silently dropped on the next reopen")
	}
	// At the limit it round-trips.
	hdr = hdr[:maxFrameLen-1]
	l, _ := mustOpen(t, path, hdr, Options{Sync: SyncNever})
	appendAll(t, l, testRecords(1))
	l.Close()
	got, recs, torn, err := read(path)
	if err != nil || torn || len(got) != len(hdr) || len(recs) != 1 {
		t.Fatalf("limit-sized header did not survive reopen: hdr=%d recs=%d torn=%v err=%v", len(got), len(recs), torn, err)
	}
}

// brokenFile fails writes and refuses the rollback truncate.
type brokenFile struct {
	File
	armed bool
}

func (f *brokenFile) WriteAt(p []byte, off int64) (int, error) {
	if f.armed {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, errors.New("disk on fire")
	}
	return f.File.WriteAt(p, off)
}

func (f *brokenFile) Truncate(size int64) error {
	if f.armed {
		return errors.New("truncate refused")
	}
	return f.File.Truncate(size)
}

func TestFailedRollbackBreaksLog(t *testing.T) {
	var bf *brokenFile
	opts := Options{Sync: SyncNever, OpenFile: func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		bf = &brokenFile{File: f}
		return bf, nil
	}}
	path := filepath.Join(t.TempDir(), "broken.wal")
	l, _ := mustOpen(t, path, []byte("h"), opts)
	appendAll(t, l, testRecords(2))
	bf.armed = true
	if _, err := l.Append(model.SlotInput{T: 3}); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("expected ErrLogBroken, got %v", err)
	}
	bf.armed = false
	if _, err := l.Append(model.SlotInput{T: 3}); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("broken log must stay broken, got %v", err)
	}
	l.Close()
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"", 0, false},
		{"ALWAYS", 0, false},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != tc.in {
			t.Fatalf("round trip %q -> %q", tc.in, got.String())
		}
	}
}

func TestAppendZeroAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alloc.wal")
	l, _ := mustOpen(t, path, []byte("h"), Options{Sync: SyncNever})
	defer l.Close()
	counts := []int{4, 2, 0}
	i := 0
	// Warm up the frame buffer.
	if _, err := l.Append(model.SlotInput{T: 1, Lambda: 2.5, Counts: counts}); err != nil {
		t.Fatal(err)
	}
	i = 1
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if _, err := l.Append(model.SlotInput{T: i, Lambda: 2.5, Counts: counts}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v per op, want 0", allocs)
	}
}
