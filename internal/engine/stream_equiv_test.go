package engine

import (
	"encoding/json"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/stream"
)

// feedInput builds the demand-only stream input for slot t of a recorded
// instance: costs resolve from the fleet template (the session resolves
// the same profiles at the slot's index), counts are passed explicitly
// only when the instance has time-varying sizes.
func feedInput(ins *model.Instance, t int) model.SlotInput {
	in := model.SlotInput{Lambda: ins.Lambda[t-1]}
	if ins.Counts != nil {
		in.Counts = ins.Counts[t-1]
	}
	return in
}

// The tentpole's central contract: for every registered streamable
// algorithm on every registered scenario, feeding the trace slot-by-slot
// through a live session yields bit-identical configurations to the batch
// Run, and the session's compensated running cost equals the batch
// schedule cost exactly — including when the session is checkpointed
// mid-trace, JSON round-tripped, and resumed into a fresh algorithm.
func TestStreamingMatchesBatchForAllAlgorithmsAndScenarios(t *testing.T) {
	const seed = 3
	for _, sc := range Scenarios() {
		for _, spec := range Algorithms() {
			if !spec.Streamable() {
				continue
			}
			spec := spec
			sc := sc
			t.Run(sc.Name+"/"+spec.Key, func(t *testing.T) {
				ins := sc.Instance(seed)
				if spec.Skip != nil && spec.Skip(ins) != "" {
					t.Skipf("inapplicable: %s", spec.Skip(ins))
				}
				batch, err := spec.Run(ins)
				if err != nil {
					t.Fatal(err)
				}
				ev := model.NewEvaluator(ins)
				batchCost := ev.Cost(batch).Total()

				// Straight-through streaming.
				sess, err := OpenSession(spec.Key, ins.Types, stream.Options{})
				if err != nil {
					t.Fatal(err)
				}
				streamed := collect(t, sess, ins, 1, ins.T())
				checkSchedules(t, "stream", batch, streamed)
				if got := sess.CumCost(); got != batchCost {
					t.Errorf("stream cum cost %v != batch cost %v", got, batchCost)
				}

				// Mid-trace checkpoint → JSON round-trip → resume.
				half := ins.T() / 2
				sessA, err := OpenSession(spec.Key, ins.Types, stream.Options{})
				if err != nil {
					t.Fatal(err)
				}
				resumed := collectOpen(t, sessA, ins, 1, half)
				cp := sessA.Checkpoint()
				if !cp.Portable() {
					t.Fatal("demand-only checkpoint should be JSON-portable")
				}
				data, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				var cp2 stream.Checkpoint
				if err := json.Unmarshal(data, &cp2); err != nil {
					t.Fatal(err)
				}
				sessB, err := ResumeSession(&cp2, ins.Types, stream.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if sessB.Fed() != half {
					t.Fatalf("resumed session fed %d slots, want %d", sessB.Fed(), half)
				}
				resumed = append(resumed, collect(t, sessB, ins, half+1, ins.T())...)
				checkSchedules(t, "checkpoint/resume", batch, resumed)
				if got := sessB.CumCost(); got != batchCost {
					t.Errorf("resumed cum cost %v != batch cost %v", got, batchCost)
				}
			})
		}
	}
}

// collectOpen feeds slots [from, to] and returns the decided configs
// without closing the session. Advisory slots must stay consecutive with
// the session's decided count (semi-online algorithms lag behind the
// feed, so the decided counter — not the fed slot — is the reference).
func collectOpen(t *testing.T, sess *stream.Session, ins *model.Instance, from, to int) []model.Config {
	t.Helper()
	var out []model.Config
	next := sess.Decided() + 1
	for ts := from; ts <= to; ts++ {
		advs, err := sess.Feed(feedInput(ins, ts))
		if err != nil {
			t.Fatalf("slot %d: %v", ts, err)
		}
		for _, adv := range advs {
			if adv.Slot != next {
				t.Fatalf("advisory for slot %d, want %d", adv.Slot, next)
			}
			next++
			out = append(out, adv.Config)
		}
	}
	return out
}

// collect is collectOpen plus Close (flushing semi-online tails).
func collect(t *testing.T, sess *stream.Session, ins *model.Instance, from, to int) []model.Config {
	t.Helper()
	out := collectOpen(t, sess, ins, from, to)
	advs, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range advs {
		out = append(out, adv.Config)
	}
	return out
}

func checkSchedules(t *testing.T, label string, batch model.Schedule, streamed []model.Config) {
	t.Helper()
	if len(streamed) != len(batch) {
		t.Fatalf("%s decided %d slots, batch has %d", label, len(streamed), len(batch))
	}
	for i := range batch {
		if !batch[i].Equal(streamed[i]) {
			t.Fatalf("%s slot %d: stream %v != batch %v", label, i+1, streamed[i], batch[i])
		}
	}
}

// The registry resolves keys, display names and convenient spellings:
// lookup normalises to lower-case alphanumerics, so punctuation, case and
// separators never matter, and near-misses still fail loudly.
func TestLookupAlgorithmSpellings(t *testing.T) {
	cases := []struct {
		in      string
		wantKey string // "" means the lookup must fail
	}{
		// registry keys and case variants
		{"alg-a", "alg-a"},
		{"ALG-A", "alg-a"},
		{"alg-b", "alg-b"},
		{"receding-horizon", "receding-horizon"},
		// separator-free and alternate-separator spellings
		{"algA", "alg-a"},
		{"alg_b", "alg-b"},
		{"alg c", "alg-c"},
		{"skirental", "ski-rental"},
		{"Load-Tracking", "load-tracking"},
		{"ALLON", "all-on"},
		// display names, with and without their decorations
		{"AlgorithmA", "alg-a"},
		{"AlgorithmC(ε=1)", "alg-c"},
		{"algorithmc1", "alg-c"},
		{"RecedingHorizon(w=3)", "receding-horizon"},
		{"SkiRental", "ski-rental"},
		{"LCP", "lcp"},
		{"Approx(ε=0.5)", "approx"},
		// misses: unknown names, near-misses, junk
		{"no-such-alg", ""},
		{"alg", ""},
		{"alg-d", ""},
		{"algorithmc2", ""}, // wrong ε is a different algorithm
		{"", ""},
		{"α β γ", ""},
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			s, ok := LookupAlgorithm(tc.in)
			if tc.wantKey == "" {
				if ok {
					t.Fatalf("LookupAlgorithm(%q) resolved to %q, want a miss", tc.in, s.Key)
				}
				return
			}
			if !ok || s.Key != tc.wantKey {
				t.Fatalf("LookupAlgorithm(%q) = (%q, %v), want key %q", tc.in, s.Key, ok, tc.wantKey)
			}
		})
	}
}

func TestRegisterAlgorithmValidation(t *testing.T) {
	if err := RegisterAlgorithm(AlgSpec{}); err == nil {
		t.Error("blank spec should be rejected")
	}
	if err := RegisterAlgorithm(AlgSpec{Key: "x", Name: "X"}); err == nil {
		t.Error("spec without constructor should be rejected")
	}
	if err := RegisterAlgorithm(AlgorithmCSpec(1)); err == nil {
		t.Error("duplicate key should be rejected")
	}
}

// DefaultAlgorithms must keep the canonical result order the experiment
// study and EXPERIMENTS.md depend on.
func TestDefaultAlgorithmsOrder(t *testing.T) {
	want := []string{"AlgorithmA", "AlgorithmB", "AlgorithmC(ε=1)", "AllOn",
		"LoadTracking", "SkiRental", "LCP", "RecedingHorizon(w=3)"}
	got := DefaultAlgorithms()
	if len(got) != len(want) {
		t.Fatalf("%d default algorithms, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Errorf("position %d: %s, want %s", i, got[i].Name, want[i])
		}
	}
}

// Per-slot algorithm rejections (Algorithm C's subdivision cap) surface
// as per-algorithm errors, not panics that would abort a whole suite run.
func TestAlgSpecRunConvertsStepPanics(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Name: "srv", Count: 1, SwitchCost: 1e-3, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1e7}},
		}},
		Lambda: []float64{0.5},
	}
	spec := AlgorithmCSpec(0.5)
	if reason := spec.Skip(ins); reason != "" {
		t.Fatalf("gate should pass (β > 0), got %q", reason)
	}
	if _, err := spec.Run(ins); err == nil {
		t.Error("expected a per-algorithm error for the subdivision cap")
	}
}

// A session whose algorithm rejects a slot degrades to a sticky error
// instead of crashing the advisory loop.
func TestSessionSurvivesAlgorithmRejection(t *testing.T) {
	types := []model.ServerType{{
		Name: "srv", Count: 1, SwitchCost: 1e-3, MaxLoad: 1,
		Cost: model.Static{F: costfn.Constant{C: 1e7}},
	}}
	sess, err := OpenSession("alg-c", types, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.FeedDemand(0.5); err == nil {
		t.Fatal("expected the subdivision cap to surface as an error")
	}
	if _, err := sess.FeedDemand(0.5); err == nil {
		t.Error("failed session must keep refusing feeds")
	}
	// The rejected slot must not poison the replay log: the checkpoint
	// covers only successfully-stepped slots and resumes cleanly.
	cp := sess.Checkpoint()
	if len(cp.Slots) != 0 {
		t.Errorf("checkpoint holds %d slots, want 0 (rejected slot excluded)", len(cp.Slots))
	}
	if _, err := ResumeSession(cp, types, stream.Options{}); err != nil {
		t.Errorf("post-failure checkpoint must resume cleanly: %v", err)
	}
}

// Offline-only entries cannot serve live sessions.
func TestOpenSessionRejectsOfflineOnly(t *testing.T) {
	sc, _ := Lookup("quickstart")
	ins := sc.Instance(1)
	if _, err := OpenSession("approx", ins.Types, stream.Options{}); err == nil {
		t.Error("approx is offline-only and must not open a session")
	}
	if _, err := OpenSession("no-such", ins.Types, stream.Options{}); err == nil {
		t.Error("unknown algorithm must not open a session")
	}
}
