package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// samePushResult compares two push results bit for bit.
func samePushResult(a, b PushResult) bool {
	if a.Decided != b.Decided || (a.Advisory == nil) != (b.Advisory == nil) {
		return false
	}
	if a.Advisory == nil {
		return true
	}
	x, y := a.Advisory, b.Advisory
	return x.Slot == y.Slot && x.Active == y.Active && x.Pending == y.Pending && x.Config.Equal(y.Config) &&
		math.Float64bits(x.Operating) == math.Float64bits(y.Operating) &&
		math.Float64bits(x.Switching) == math.Float64bits(y.Switching) &&
		math.Float64bits(x.CumCost) == math.Float64bits(y.CumCost) &&
		math.Float64bits(x.Opt) == math.Float64bits(y.Opt) &&
		math.Float64bits(x.Ratio) == math.Float64bits(y.Ratio)
}

// evictResumeRun opens id on m, pushes trace[:cut], evicts it, applies
// tamper to the stored snapshot, then pushes the rest of the trace and
// checks every post-resume result against ref, an uninterrupted run.
func evictResumeRun(t *testing.T, m *Manager, store SnapshotStore, id, alg string, cut int, tamper func(*Snapshot), ref []PushResult) {
	t.Helper()
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: id, Alg: alg, Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, id, trace, 0, cut)
	if err := m.Evict(id); err != nil {
		t.Fatal(err)
	}
	if tamper != nil {
		snap, ok, err := store.Load(id)
		if err != nil || !ok {
			t.Fatalf("load %s: ok=%v err=%v", id, ok, err)
		}
		tamper(snap)
		if err := store.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	for i := cut; i < len(trace); i++ {
		res, err := m.Push(id, PushRequest{Lambda: trace[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !samePushResult(res, ref[i]) {
			t.Fatalf("%s slot %d: resumed %+v, uninterrupted %+v", id, i+1, res.Advisory, ref[i].Advisory)
		}
	}
}

// referenceRun pushes the whole trace through an uninterrupted session.
func referenceRun(t *testing.T, alg string) []PushResult {
	t.Helper()
	m := NewManager(Options{})
	if _, err := m.Open(OpenRequest{ID: "ref", Alg: alg, Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	var out []PushResult
	for _, l := range quickstartTrace(t) {
		res, err := m.Push("ref", PushRequest{Lambda: l})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// An evicted alg-b session resumes from the state saved in its DirStore
// snapshot — the replayed-slots counter stays 0 — and continues
// bit-identically to an uninterrupted session. A snapshot without state,
// or with a damaged one, resumes by replay to the same results, and the
// counter reports the replayed log.
func TestEvictResumeRestoresState(t *testing.T) {
	const cut = 30
	store, err := NewDirStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Store: store})
	ref := referenceRun(t, "alg-b")

	var saved []byte
	evictResumeRun(t, m, store, "state", "alg-b", cut, func(s *Snapshot) { saved = s.State }, ref)
	if len(saved) == 0 {
		t.Fatal("eviction saved no state")
	}
	if got := m.Metrics(); got.SessionsResumed != 1 || got.ResumeReplayedSlots != 0 {
		t.Fatalf("state resume: resumed=%d replayed slots=%d, want 1 and 0", got.SessionsResumed, got.ResumeReplayedSlots)
	}

	evictResumeRun(t, m, store, "no-state", "alg-b", cut, func(s *Snapshot) { s.State = nil }, ref)
	evictResumeRun(t, m, store, "damaged", "alg-b", cut, func(s *Snapshot) { s.State[len(s.State)/2] ^= 0x10 }, ref)
	if got := m.Metrics(); got.SessionsResumed != 3 || got.ResumeReplayedSlots != 2*cut {
		t.Fatalf("replay resumes: resumed=%d replayed slots=%d, want 3 and %d", got.SessionsResumed, got.ResumeReplayedSlots, 2*cut)
	}

	// Algorithms without a state codec save none and always replay.
	evictResumeRun(t, m, store, "alg-c", "alg-c", cut, func(s *Snapshot) {
		if s.State != nil {
			t.Errorf("alg-c snapshot carries %d bytes of state", len(s.State))
		}
	}, referenceRun(t, "alg-c"))
	if got := m.Metrics(); got.ResumeReplayedSlots != 3*cut {
		t.Fatalf("alg-c resume: replayed slots=%d, want %d", got.ResumeReplayedSlots, 3*cut)
	}
}

// The saved state is store-internal: the checkpoint endpoint's body
// carries only the portable log, while the store's copy has the state.
func TestCheckpointBodyOmitsState(t *testing.T) {
	store := NewMemStore()
	m := NewManager(Options{Store: store})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	if _, err := m.Open(OpenRequest{ID: "cp", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "cp", quickstartTrace(t), 0, 12)

	resp, err := http.Post(srv.URL+"/v1/sessions/cp/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: HTTP %d, %v", resp.StatusCode, err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["state"]; ok || bytes.Contains(body, []byte(`"state"`)) {
		t.Fatalf("checkpoint body leaks the store-internal state: %s", body)
	}
	snap, ok, err := store.Load("cp")
	if err != nil || !ok || len(snap.State) == 0 {
		t.Fatalf("stored checkpoint: ok=%v err=%v state=%d bytes, want a saved state", ok, err, len(snap.State))
	}
}

// A stored alg-a snapshot whose state is version 1 of Algorithm A's
// codec, which saved each type's whole power-up history, still resumes:
// the state is refused, the log replays, and the session continues
// bit-identically. testdata/legacy-a.json is such a snapshot, stored by
// a DirStore after 30 quickstart slots.
func TestResumeReplaysVersion1StateA(t *testing.T) {
	const cut = 30
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-a.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "legacy-a.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := store.Load("legacy-a")
	if err != nil || !ok || len(snap.State) == 0 {
		t.Fatalf("fixture: ok=%v err=%v, want a stored state", ok, err)
	}
	if fed, err := snap.fed(); err != nil || fed != cut {
		t.Fatalf("fixture holds %d slots (%v), want %d", fed, err, cut)
	}
	m := NewManager(Options{Store: store})
	ref := referenceRun(t, "alg-a")
	trace := quickstartTrace(t)
	for i := cut; i < len(trace); i++ {
		res, err := m.Push("legacy-a", PushRequest{Lambda: trace[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !samePushResult(res, ref[i]) {
			t.Fatalf("slot %d: resumed %+v, uninterrupted %+v", i+1, res.Advisory, ref[i].Advisory)
		}
	}
	if got := m.Metrics(); got.SessionsResumed != 1 || got.ResumeReplayedSlots != cut {
		t.Fatalf("resumed=%d replayed slots=%d, want 1 and %d", got.SessionsResumed, got.ResumeReplayedSlots, cut)
	}
}
