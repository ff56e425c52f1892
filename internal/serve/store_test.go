package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/wire"
)

// The save path must hit its durability points in order: data written
// and fsynced before the rename publishes the name, the directory
// fsynced after. Any other order has a crash window where the rename is
// durable but the bytes are not — an atomically-committed empty file.
func TestDirStoreSaveSyncSequence(t *testing.T) {
	store, err := NewDirStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	store.trace = func(op, path string) { ops = append(ops, op) }
	snap := &Snapshot{ID: "seq", Fleet: quickstartFleet(), Checkpoint: &stream.Checkpoint{Alg: "alg-b"}}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}
	want := []string{"write-temp", "sync-temp", "close-temp", "rename", "sync-dir"}
	if len(ops) != len(want) {
		t.Fatalf("save traced %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("save step %d is %q, want %q (full trace %v)", i, ops[i], want[i], ops)
		}
	}
	if _, ok, err := store.Load("seq"); err != nil || !ok {
		t.Fatalf("Load after traced save: ok=%v err=%v", ok, err)
	}
}

// A snapshot file that exists but does not decode is quarantined to
// <name>.corrupt on first load: the load reports ErrSnapshotCorrupt
// once, subsequent loads are clean misses, and the id is immediately
// reusable for a fresh save.
func TestDirStoreQuarantinesCorrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"id":"bad","fleet":`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ok, err := store.Load("bad")
	if ok || !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Load(corrupt) = ok=%v err=%v, want ErrSnapshotCorrupt", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still at %s after quarantine", path)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}

	if _, ok, err := store.Load("bad"); ok || err != nil {
		t.Fatalf("second Load = ok=%v err=%v, want clean miss", ok, err)
	}
	snap := &Snapshot{ID: "bad", Fleet: quickstartFleet(), Checkpoint: &stream.Checkpoint{Alg: "alg-b"}}
	if err := store.Save(snap); err != nil {
		t.Fatalf("Save over quarantined id: %v", err)
	}
	if _, ok, err := store.Load("bad"); err != nil || !ok {
		t.Fatalf("Load after re-save: ok=%v err=%v", ok, err)
	}
}

// Through the manager a corrupt snapshot reads as an unknown session —
// a clean 404-shaped error, not a wedged 5xx — the event is counted,
// and the id can be opened fresh.
func TestManagerCorruptSnapshotCleanMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hurt.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Store: store})
	defer m.Close()

	if _, err := m.Info("hurt"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Info over corrupt snapshot err = %v, want ErrUnknownSession", err)
	}
	if got := m.Metrics().SnapshotCorrupt; got != 1 {
		t.Fatalf("snapshot_corrupt = %d, want 1", got)
	}
	if _, err := m.Open(OpenRequest{ID: "hurt", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatalf("Open over quarantined id: %v", err)
	}
	if _, err := m.Push("hurt", PushRequest{Lambda: 2}); err != nil {
		t.Fatalf("push to reopened id: %v", err)
	}
}

// A snapshot file that decodes but is not the id's session — null, an
// empty object, an id with no checkpoint, or another session's
// snapshot — is corrupt too: it is quarantined, counted and read as a
// clean miss, never answered with a retry-forever store error.
func TestManagerNonSessionSnapshotCleanMiss(t *testing.T) {
	other, err := json.Marshal(&Snapshot{ID: "other", Fleet: quickstartFleet(), Checkpoint: &stream.Checkpoint{Alg: "alg-b"}})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"null": "null", "empty": "{}", "no-checkpoint": `{"id":"hurt"}`, "wrong-id": string(other),
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snaps")
			store, err := NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "hurt.json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			m := NewManager(Options{Store: store})
			defer m.Close()

			if _, err := m.Info("hurt"); !errors.Is(err, ErrUnknownSession) {
				t.Fatalf("Info over %s snapshot err = %v, want ErrUnknownSession", name, err)
			}
			if got := m.Metrics().SnapshotCorrupt; got != 1 {
				t.Fatalf("snapshot_corrupt = %d, want 1", got)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("quarantined copy missing: %v", err)
			}
			if _, err := m.Open(OpenRequest{ID: "hurt", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
				t.Fatalf("Open over quarantined id: %v", err)
			}
			if _, err := m.Push("hurt", PushRequest{Lambda: 2}); err != nil {
				t.Fatalf("push to reopened id: %v", err)
			}
		})
	}
}

// Snapshot files written indented, as the store wrote them before it
// moved to the wire codec, still resume — into the same session a
// compact file resumes into.
func TestDirStoreLoadsLegacyIndented(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Store: store})
	defer m.Close()
	if _, err := m.Open(OpenRequest{ID: "old", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	trace := quickstartTrace(t)
	pushAll(t, m, "old", trace, 0, 30)
	if err := m.Evict("old"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "old.json")
	compact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(compact, &snap); err != nil {
		t.Fatalf("stored snapshot is not JSON: %v", err)
	}
	if want, _ := json.Marshal(&snap); !bytes.Equal(compact, want) {
		t.Fatalf("stored snapshot differs from json.Marshal:\n%s\n%s", compact, want)
	}
	indented, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, indented, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Load("old")
	if err != nil || !ok {
		t.Fatalf("Load(indented) ok=%v err=%v", ok, err)
	}
	// The store decodes the log into columns, json.Unmarshal into records.
	if got.Checkpoint != nil {
		got.Checkpoint = &stream.Checkpoint{Alg: got.Checkpoint.Alg, Slots: got.Checkpoint.Records()}
	}
	if !reflect.DeepEqual(got, &snap) {
		t.Fatalf("indented snapshot loads as %+v, want %+v", got, &snap)
	}
	res, err := m.Push("old", PushRequest{Lambda: trace[30]})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewManager(Options{})
	defer ref.Close()
	if _, err := ref.Open(OpenRequest{ID: "old", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, ref, "old", trace, 0, 30)
	want, err := ref.Push("old", PushRequest{Lambda: trace[30]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("push after indented resume = %+v, want %+v", res.Advisory, want.Advisory)
	}
}

// A save's temp file orphaned by a crash between its creation and its
// rename is removed when the store opens the directory again; snapshots,
// quarantined files and other files are left alone.
func TestDirStoreRemovesOrphanedTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&Snapshot{ID: "web-1", Fleet: quickstartFleet(), Checkpoint: &stream.Checkpoint{Alg: "alg-b"}}); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		".web-1-123456789":   "a torn save",
		".web-1-42":          "",
		"web-1.json.corrupt": "quarantined",
		".keep":              "not a temp file",
		".web-1-12ab":        "not a temp file",
		"notes.txt":          "not a snapshot",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snapshot, err := os.ReadFile(filepath.Join(dir, "web-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirStore(dir); err != nil {
		t.Fatal(err)
	}
	for name, body := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if isSaveTemp(name) {
			if !os.IsNotExist(err) {
				t.Errorf("orphaned temp file %s survived the reopen (err %v)", name, err)
			}
			continue
		}
		if err != nil || string(got) != body {
			t.Errorf("%s after the reopen: %q, %v; want it untouched", name, got, err)
		}
	}
	if got, err := os.ReadFile(filepath.Join(dir, "web-1.json")); err != nil || !bytes.Equal(got, snapshot) {
		t.Fatalf("snapshot after the reopen: %q, %v", got, err)
	}
	if !isSaveTemp(".web-1-123456789") || isSaveTemp(".keep") || isSaveTemp("web-1.json") {
		t.Fatal("isSaveTemp misclassifies")
	}
}

// FuzzDecodeFleet holds decodeFleet to encoding/json. For arbitrary
// bytes it decodes what json.Unmarshal decodes, and errs where it errs,
// into a zero and into a filled descriptor (duplicate members merge);
// strict, it does the same against a json.Decoder that disallows unknown
// fields. The compact form json.Marshal writes of a scenario fleet whose
// name needs no escapes takes the fast path (wire.ReadScenarioFleet),
// and any form of a valid UTF-8 name decodes back to the descriptor
// marshalled.
func FuzzDecodeFleet(f *testing.F) {
	for _, s := range []string{
		`{"scenario":"quickstart","seed":1}`, `{"scenario":"quickstart"}`, `{"seed":-7}`, `{}`,
		`{"scenario":"a","seed":0}`, `{"scenario":"","seed":2}`, `{"seed":1,"scenario":"a"}`,
		`{"scenario":"a","scenario":"b"}`, `{"scenario":"ab"}`, `{"scenario":"a<b"}`,
		`{"scenario":"é"}`, `{"scenario":"a", "seed":1}`, `{"scenario":"a","seed":01}`,
		`{"scenario":"a","seed":1.0}`, `{"scenario":"a","seed":9223372036854775808}`,
		`{"scenario":"a","seed":1}x`, `{"types":[{"name":"a"}]}`, `{"Scenario":"a"}`,
		`{"scenario":"a","extra":1}`, `null`, `{"scenario":"a"`, ``,
	} {
		f.Add([]byte(s), "quickstart", int64(1))
	}
	f.Add([]byte(`{}`), "a<b>&\"\\", int64(-1))
	f.Add([]byte(`{}`), "", int64(0))
	f.Fuzz(func(t *testing.T, data []byte, scenario string, seed int64) {
		filled := func() FleetJSON {
			return FleetJSON{Scenario: "old", Seed: 9, Types: []model.ServerTypeJSON{{Name: "t"}}}
		}
		for _, strict := range []bool{false, true} {
			for _, target := range []func() FleetJSON{func() FleetJSON { return FleetJSON{} }, filled} {
				got, want := target(), target()
				err := decodeFleet(data, &got, strict)
				var jerr error
				if strict {
					jerr = strictDecode(data, &want)
				} else {
					jerr = json.Unmarshal(data, &want)
				}
				if (err == nil) != (jerr == nil) || err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("%q (strict %v): decodes to %+v (%v), json %+v (%v)", data, strict, got, err, want, jerr)
				}
			}
		}

		fleet := FleetJSON{Scenario: scenario, Seed: seed}
		enc, err := json.Marshal(&fleet)
		if err != nil {
			t.Fatal(err)
		}
		plain := true
		for _, c := range []byte(scenario) {
			plain = plain && c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
		}
		if _, _, ok := wire.ReadScenarioFleet(enc); ok != plain {
			t.Fatalf("%s: fast path %v, want %v", enc, ok, plain)
		}
		var got FleetJSON
		if !utf8.ValidString(scenario) {
			return // json.Marshal replaces the invalid bytes
		}
		if err := decodeFleet(enc, &got, true); err != nil || !reflect.DeepEqual(got, fleet) {
			t.Fatalf("%s decodes to %+v (%v)", enc, got, err)
		}
	})
}
