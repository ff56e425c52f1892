package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/statebuf"
	"repro/internal/stream"
	"repro/internal/wire"
)

// storedBytes returns the stored form of session id in a DirStore or
// MemStore.
func storedBytes(t *testing.T, store SnapshotStore, id string) []byte {
	t.Helper()
	switch s := store.(type) {
	case *DirStore:
		data, err := os.ReadFile(s.path(id))
		if err != nil {
			t.Fatal(err)
		}
		return data
	case *MemStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.snaps[id]
	}
	t.Fatalf("no stored form for %T", store)
	return nil
}

// replaceStored overwrites the stored form of session id.
func replaceStored(t *testing.T, store SnapshotStore, id string, data []byte) {
	t.Helper()
	switch s := store.(type) {
	case *DirStore:
		if err := os.WriteFile(s.path(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
	case *MemStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		s.snaps[id] = data
	default:
		t.Fatalf("cannot replace a stored form in %T", store)
	}
}

// logBase reports the LogBase of live session id: the slots it resumed
// past without decoding them.
func logBase(t *testing.T, m *Manager, id string) int {
	t.Helper()
	sh := m.shardFor(id)
	sh.mu.Lock()
	ls, ok := sh.live[id]
	sh.mu.Unlock()
	if !ok {
		t.Fatalf("session %s is not live", id)
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.sess.LogBase()
}

// checkStoredCanonical asserts that the stored form of session id is
// exactly what json.Marshal makes of it once decoded in full, that it
// holds fed slots, and that its log sum seals it.
func checkStoredCanonical(t *testing.T, store SnapshotStore, id string, fed int) {
	t.Helper()
	data := storedBytes(t, store, id)
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("%s: stored snapshot is not JSON: %v", id, err)
	}
	want, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: stored snapshot differs from json.Marshal of its decoded log:\n%s\n%s", id, data, want)
	}
	if len(snap.Checkpoint.Slots) != fed {
		t.Fatalf("%s: stored log holds %d slots, want %d", id, len(snap.Checkpoint.Slots), fed)
	}
	if _, ok := wire.ReadSealedSnapshot(data); !ok {
		t.Fatalf("%s: stored snapshot's log sum does not seal it", id)
	}
}

// scenarioReq is slot ts (1-based) of ins as a push.
func scenarioReq(ins *model.Instance, ts int) PushRequest {
	req := PushRequest{Lambda: ins.Lambda[ts-1]}
	if ins.Counts != nil {
		req.Counts = ins.Counts[ts-1]
	}
	return req
}

// The resume fast path's differential: Algorithms A and B on every
// scenario — time-varying costs and counts included — through a DirStore
// and a MemStore, evicted and resumed at three random cut points, so the
// stored span a resume carried is carried again by the next. Every
// resume after the first eviction restores from the state alone
// (LogBase is the cut), every re-evicted file is byte-identical to
// encoding its whole decoded log, and the advisories, the cumulative
// cost and the final portable checkpoint are bit-identical to an
// uninterrupted session's.
func TestFastResumeDifferential(t *testing.T) {
	const seed = 3
	rng := rand.New(rand.NewSource(19))
	for _, sc := range engine.Scenarios() {
		ins := sc.Instance(seed)
		fleet := FleetJSON{Scenario: sc.Name, Seed: seed}
		for _, key := range []string{"alg-a", "alg-b"} {
			if spec, _ := engine.LookupAlgorithm(key); spec.Skip != nil && spec.Skip(ins) != "" {
				continue
			}
			cuts := rng.Perm(ins.T() - 1)[:3]
			for i := range cuts {
				cuts[i]++
			}
			slices.Sort(cuts)
			for _, kind := range []string{"dir", "mem"} {
				t.Run(fmt.Sprintf("%s/%s/%s", sc.Name, key, kind), func(t *testing.T) {
					var store SnapshotStore = NewMemStore()
					if kind == "dir" {
						ds, err := NewDirStore(filepath.Join(t.TempDir(), "snaps"))
						if err != nil {
							t.Fatal(err)
						}
						store = ds
					}
					fastResumeRun(t, store, fleet, key, ins, cuts)
				})
			}
		}
	}
}

func fastResumeRun(t *testing.T, store SnapshotStore, fleet FleetJSON, key string, ins *model.Instance, cuts []int) {
	const id = "fast"
	ref := NewManager(Options{})
	defer ref.Close()
	m := NewManager(Options{Store: store})
	defer m.Close()
	for _, mm := range []*Manager{ref, m} {
		if _, err := mm.Open(OpenRequest{ID: id, Alg: key, Fleet: fleet}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0 // index into cuts of the next eviction
	for ts := 1; ts <= ins.T(); ts++ {
		want, err := ref.Push(id, scenarioReq(ins, ts))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Push(id, scenarioReq(ins, ts))
		if err != nil {
			t.Fatal(err)
		}
		if !samePushResult(got, want) {
			t.Fatalf("slot %d: resumed %+v, uninterrupted %+v", ts, got.Advisory, want.Advisory)
		}
		if next > 0 && ts == cuts[next-1]+1 {
			if base := logBase(t, m, id); base != cuts[next-1] {
				t.Fatalf("resume after slot %d: log base %d, want the state-only restore's %d", cuts[next-1], base, cuts[next-1])
			}
		}
		if next < len(cuts) && ts == cuts[next] {
			if err := m.Evict(id); err != nil {
				t.Fatal(err)
			}
			checkStoredCanonical(t, store, id, ts)
			next++
		}
	}
	if got := m.Metrics().ResumeReplayedSlots; got != 0 {
		t.Fatalf("resumes replayed %d slots, want 0", got)
	}
	gotInfo, err := m.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, err := ref.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotInfo, wantInfo) {
		t.Fatalf("final info %+v, uninterrupted %+v", gotInfo, wantInfo)
	}
	gotCp, err := m.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	wantCp, err := ref.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	gotBody, _ := json.Marshal(gotCp)
	wantBody, _ := json.Marshal(wantCp)
	if !reflect.DeepEqual(gotCp, wantCp) || !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("final portable checkpoint\n%s\nuninterrupted\n%s", gotBody, wantBody)
	}
	checkStoredCanonical(t, store, id, ins.T())
}

// Stored snapshots the fast path must not trust resume by decoding and
// replaying their log, with results identical to an uninterrupted
// session's: a file written indented, one from before log sums, one
// with a byte of its log flipped (to a case-folded key that decodes to
// the same log), one with its sum flipped, and one carrying another
// session's state. So does a sealed file whose state the codec refuses
// (a state of the previous version, resealed): the fast reader accepts
// it, the restore fails, and the log replays. The next eviction writes
// a sealed file again, which the following resume trusts.
func TestFastResumeFallbacks(t *testing.T) {
	const cut, cut2 = 20, 30
	trace := quickstartTrace(t)
	ref := referenceRun(t, "alg-b")
	// A state saved by a session over another log of the same length,
	// for the foreign case.
	other := NewManager(Options{})
	if _, err := other.Open(OpenRequest{ID: "other", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, other, "other", trace, 1, cut+1)
	if err := other.Evict("other"); err != nil {
		t.Fatal(err)
	}
	foreign, ok, err := other.store.Load("other")
	if err != nil || !ok {
		t.Fatalf("load the foreign snapshot: ok=%v err=%v", ok, err)
	}

	reencode := func(edit func(*wire.Snapshot)) func([]byte) []byte {
		return func(data []byte) []byte {
			var ws wire.Snapshot
			if err := wire.DecodeSnapshot(data, &ws); err != nil {
				t.Fatal(err)
			}
			edit(&ws)
			out, err := wire.AppendSnapshot(nil, &ws)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	oldVersion := func(data []byte) []byte { return resealPreviousVersion(t, data) }
	cases := []struct {
		name     string
		tamper   func([]byte) []byte
		replayed bool // the state no longer fits the log, so the log replays
		sealed   bool // the tampered file still passes the fast reader
	}{
		{"indented", func(data []byte) []byte {
			var snap Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			out, err := json.MarshalIndent(&snap, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, true, false},
		{"no-sum", reencode(func(ws *wire.Snapshot) { ws.LogSum = 0 }), true, false},
		{"span-byte", func(data []byte) []byte {
			i := bytes.Index(data, []byte(`"slots":[{"lambda"`))
			if i < 0 {
				t.Fatalf("no log in %s", data)
			}
			out := slices.Clone(data)
			out[i+len(`"slots":[{"`)] ^= 0x20 // "lambda" → "Lambda"
			return out
		}, true, false},
		{"sum", reencode(func(ws *wire.Snapshot) { ws.LogSum ^= 1 << 7 }), true, false},
		{"foreign-state", reencode(func(ws *wire.Snapshot) { ws.State = foreign.State }), true, false},
		{"sealed-old-state", oldVersion, true, true},
	}
	for _, kind := range []string{"dir", "mem"} {
		for _, c := range cases {
			t.Run(kind+"/"+c.name, func(t *testing.T) {
				var store SnapshotStore = NewMemStore()
				if kind == "dir" {
					ds, err := NewDirStore(filepath.Join(t.TempDir(), "snaps"))
					if err != nil {
						t.Fatal(err)
					}
					store = ds
				}
				m := NewManager(Options{Store: store})
				defer m.Close()
				const id = "fb"
				if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
					t.Fatal(err)
				}
				pushAll(t, m, id, trace, 0, cut)
				if err := m.Evict(id); err != nil {
					t.Fatal(err)
				}
				tampered := c.tamper(storedBytes(t, store, id))
				if _, ok := wire.ReadSealedSnapshot(tampered); ok != c.sealed {
					t.Fatalf("the fast reader accepts the tampered file: %v, want %v", ok, c.sealed)
				}
				replaceStored(t, store, id, tampered)
				for i := cut; i < len(trace); i++ {
					res, err := m.Push(id, PushRequest{Lambda: trace[i]})
					if err != nil {
						t.Fatal(err)
					}
					if !samePushResult(res, ref[i]) {
						t.Fatalf("slot %d: resumed %+v, uninterrupted %+v", i+1, res.Advisory, ref[i].Advisory)
					}
					switch i {
					case cut:
						if base := logBase(t, m, id); base != 0 {
							t.Fatalf("tampered file resumed past %d slots without decoding them", base)
						}
					case cut2 - 1:
						if err := m.Evict(id); err != nil {
							t.Fatal(err)
						}
						checkStoredCanonical(t, store, id, cut2)
					case cut2:
						if base := logBase(t, m, id); base != cut2 {
							t.Fatalf("resealed file resumed with log base %d, want %d", base, cut2)
						}
					}
				}
				want := uint64(0)
				if c.replayed {
					want = cut
				}
				if got := m.Metrics().ResumeReplayedSlots; got != want {
					t.Fatalf("replayed %d slots on resume, want %d", got, want)
				}
			})
		}
	}
}

// resealPreviousVersion rewrites the sealed state in a stored file to
// the previous state version and reseals the file, so the fast reader
// accepts it and only the state codec can refuse it.
func resealPreviousVersion(t *testing.T, data []byte) []byte {
	t.Helper()
	ss, ok := wire.ReadSealedSnapshot(data)
	if !ok {
		t.Fatal("the evicted file is not sealed")
	}
	body := slices.Clone(ss.State[:len(ss.State)-4])
	body[1]--
	state := statebuf.AppendChecksum(body, 0)
	var ws wire.Snapshot
	if err := wire.DecodeSnapshot(data, &ws); err != nil {
		t.Fatal(err)
	}
	ws.State, ws.LogSum = state, ss.Log.Seal(nil, state)
	out, err := wire.AppendSnapshot(nil, &ws)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Deleting an evicted session reports its fed count from the sealed
// state, without decoding the stored log. A sealed file whose state
// the codec refuses (one of the previous state version) reports the
// decoded log's length instead.
func TestDeleteEvictedReadsFedFromState(t *testing.T) {
	store := NewMemStore()
	m := NewManager(Options{Store: store})
	if _, err := m.Open(OpenRequest{ID: "del", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "del", quickstartTrace(t), 0, 17)
	if err := m.Evict("del"); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := store.Load("del")
	if err != nil || !ok || snap.log == nil {
		t.Fatalf("load: ok=%v err=%v, want a snapshot holding its log as stored bytes", ok, err)
	}
	// A log that would not decode: fed must not need it.
	snap.log.span.Bytes = []byte("[not a log")
	if fed, err := snap.fed(); err != nil || fed != 17 {
		t.Fatalf("fed = %d, %v; want 17 from the state", fed, err)
	}
	res, err := m.Delete("del")
	if err != nil || res.Info.Fed != 17 || res.Info.Alg != "alg-b" {
		t.Fatalf("delete of the evicted session: %+v, %v", res, err)
	}

	if _, err := m.Open(OpenRequest{ID: "old", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "old", quickstartTrace(t), 0, 17)
	if err := m.Evict("old"); err != nil {
		t.Fatal(err)
	}
	replaceStored(t, store, "old", resealPreviousVersion(t, storedBytes(t, store, "old")))
	if snap, ok, err := store.Load("old"); err != nil || !ok || snap.log == nil {
		t.Fatalf("load: ok=%v err=%v, want a sealed snapshot", ok, err)
	}
	res, err = m.Delete("old")
	if err != nil || res.Info.Fed != 17 || res.Info.Alg != "alg-b" {
		t.Fatalf("delete of a session evicted with a previous-version state: %+v, %v", res, err)
	}
	if _, ok, err := store.Load("old"); err != nil || ok {
		t.Fatalf("the deleted session is still stored: ok=%v err=%v", ok, err)
	}
}

// flatCycleBytes bounds what one evict→push cycle allocates beyond the
// stored file it reads: the session's construction and the save's
// buffers, none of which grows with the session's age.
const flatCycleBytes = 32 << 10

// An evict→push cycle costs the same at any session age: quickstart
// alg-b sessions of 10² and 10⁴ slots in a DirStore allocate the same
// number of objects per cycle, and the bytes they allocate exceed the
// stored file, read once, by at most a constant.
func TestEvictResumeFlatInAge(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	trace := quickstartTrace(t)
	type cost struct {
		allocs float64
		bytes  uint64
		size   int64
	}
	measure := func(age int) cost {
		dir := filepath.Join(t.TempDir(), "snaps")
		store, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(Options{Store: store})
		defer m.Close()
		cp := &stream.Checkpoint{Alg: "alg-b", Slots: make([]stream.SlotRecord, age)}
		for i := range cp.Slots {
			cp.Slots[i].Lambda = trace[i%len(trace)]
		}
		const id = "aged"
		if _, err := m.Open(OpenRequest{ID: id, Fleet: quickstartFleet(), Checkpoint: cp}); err != nil {
			t.Fatal(err)
		}
		n := 0
		cycle := func() {
			if err := m.Evict(id); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Push(id, PushRequest{Lambda: trace[n%len(trace)]}); err != nil {
				t.Fatal(err)
			}
			n++
		}
		// The first eviction encodes the imported log; every cycle after
		// it resumes from the state alone. The collector stays off while
		// counting: a collection empties the sync.Pools encoding/json
		// draws from, and a larger session's garbage would trigger more.
		cycle()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		c := cost{allocs: testing.AllocsPerRun(20, cycle)}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		c.bytes = (after.TotalAlloc - before.TotalAlloc) / runs
		fi, err := os.Stat(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		c.size = fi.Size()
		if base := logBase(t, m, id); base != age+n-1 {
			t.Fatalf("age %d: log base %d, want %d", age, base, age+n-1)
		}
		return c
	}
	young, old := measure(100), measure(10000)
	t.Logf("age 1e2: %.0f allocs, %d B per cycle, %d B file; age 1e4: %.0f allocs, %d B per cycle, %d B file",
		young.allocs, young.bytes, young.size, old.allocs, old.bytes, old.size)
	if young.allocs != old.allocs {
		t.Errorf("allocations per cycle: %.0f at age 1e2, %.0f at age 1e4", young.allocs, old.allocs)
	}
	for _, c := range []cost{young, old} {
		if c.bytes > uint64(c.size)+flatCycleBytes {
			t.Errorf("a cycle over a %d B file allocates %d B, over the file plus %d", c.size, c.bytes, flatCycleBytes)
		}
	}
}
