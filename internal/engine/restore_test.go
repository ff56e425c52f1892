package engine

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/stream"
)

// sameAdvisory compares two advisories bit for bit: every float by its
// IEEE-754 bits, the configuration element-wise.
func sameAdvisory(a, b stream.Advisory) bool {
	if a.Slot != b.Slot || a.Active != b.Active || a.Pending != b.Pending || !a.Config.Equal(b.Config) {
		return false
	}
	for _, p := range [][2]float64{
		{a.Lambda, b.Lambda}, {a.Operating, b.Operating}, {a.Switching, b.Switching},
		{a.CumCost, b.CumCost}, {a.Opt, b.Opt}, {a.Ratio, b.Ratio},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// feedAll feeds slots from..to of ins and returns their advisories.
func feedAll(t *testing.T, sess *stream.Session, ins *model.Instance, from, to int) []stream.Advisory {
	t.Helper()
	var out []stream.Advisory
	for s := from; s <= to; s++ {
		advs, err := sess.Feed(feedInput(ins, s))
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		out = append(out, advs...)
	}
	return out
}

// sameSession checks progress and cost of two sessions bit for bit.
func sameSession(t *testing.T, label string, got, want *stream.Session) {
	t.Helper()
	if got.Fed() != want.Fed() || got.Decided() != want.Decided() ||
		math.Float64bits(got.CumCost()) != math.Float64bits(want.CumCost()) {
		t.Fatalf("%s: fed=%d decided=%d cum=%v, want fed=%d decided=%d cum=%v", label,
			got.Fed(), got.Decided(), got.CumCost(), want.Fed(), want.Decided(), want.CumCost())
	}
}

// The state path's contract, over every scenario for both algorithms
// with a state codec: a session restored from its saved state alone at
// any cut point is bit-identical to the session replayed from the
// checkpoint — its JSON round-tripped, as the snapshot stores do — and
// to an uninterrupted one, both at the cut and on every advisory after
// it.
func TestRestoreMatchesReplayAllScenarios(t *testing.T) {
	const seed = 5
	rng := rand.New(rand.NewSource(13))
	for _, sc := range Scenarios() {
		for _, key := range []string{"alg-a", "alg-b"} {
			spec, _ := LookupAlgorithm(key)
			ins := sc.Instance(seed)
			cuts := []int{0, 1, ins.T(), 1 + rng.Intn(ins.T()), 1 + rng.Intn(ins.T())}
			t.Run(sc.Name+"/"+key, func(t *testing.T) {
				if spec.Skip != nil && spec.Skip(ins) != "" {
					t.Skipf("inapplicable: %s", spec.Skip(ins))
				}
				whole, err := OpenSession(key, ins.Types, stream.Options{})
				if err != nil {
					t.Fatal(err)
				}
				wholeAdvs := feedAll(t, whole, ins, 1, ins.T())

				for _, cut := range cuts {
					part, err := OpenSession(key, ins.Types, stream.Options{})
					if err != nil {
						t.Fatal(err)
					}
					feedAll(t, part, ins, 1, cut)
					state := part.AppendState(nil)
					if len(state) == 0 {
						t.Fatalf("cut %d: %s saved no state", cut, key)
					}
					data, err := json.Marshal(part.Checkpoint())
					if err != nil {
						t.Fatal(err)
					}
					var cp stream.Checkpoint
					if err := json.Unmarshal(data, &cp); err != nil {
						t.Fatal(err)
					}

					restored, err := RestoreSessionFromState(cp.Alg, state, ins.Types, stream.Options{})
					if err != nil {
						t.Fatalf("cut %d: RestoreSessionFromState: %v", cut, err)
					}
					replayed, err := ResumeSession(&cp, ins.Types, stream.Options{})
					if err != nil {
						t.Fatal(err)
					}
					sameSession(t, "restored vs replayed", restored, replayed)
					sameSession(t, "restored vs uninterrupted", restored, part)

					gotAdvs := feedAll(t, restored, ins, cut+1, ins.T())
					repAdvs := feedAll(t, replayed, ins, cut+1, ins.T())
					for i, want := range wholeAdvs[cut:] {
						if !sameAdvisory(gotAdvs[i], want) || !sameAdvisory(repAdvs[i], want) {
							t.Fatalf("cut %d slot %d: restored %+v, replayed %+v, uninterrupted %+v",
								cut, want.Slot, gotAdvs[i], repAdvs[i], want)
						}
					}
					sameSession(t, "restored at the end", restored, whole)
					// A restored session saves the same state as the
					// uninterrupted one.
					if string(restored.AppendState(nil)) != string(whole.AppendState(nil)) {
						t.Fatalf("cut %d: restored session's state differs from the uninterrupted session's", cut)
					}
				}
			})
		}
	}
}

// Algorithms without a state codec save none, and refuse to restore
// even a foreign state: they resume by replay only.
func TestRestoreSessionReplaysWithoutCodec(t *testing.T) {
	sc, _ := Lookup("quickstart")
	ins := sc.Instance(1)
	for _, key := range []string{"alg-c", "receding-horizon", "ski-rental"} {
		sess, err := OpenSession(key, ins.Types, stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, sess, ins, 1, 20)
		if st := sess.AppendState(nil); st != nil {
			t.Fatalf("%s saved %d bytes of state without a codec", key, len(st))
		}
		b, _ := OpenSession("alg-b", ins.Types, stream.Options{})
		feedAll(t, b, ins, 1, 20)
		if _, err := RestoreSessionFromState(key, b.AppendState(nil), ins.Types, stream.Options{}); err == nil {
			t.Fatalf("%s: restored a foreign state without a codec", key)
		}
		got, err := ResumeSession(sess.Checkpoint(), ins.Types, stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameSession(t, key, got, sess)
	}
}

// agedQuickstart returns a 2000-slot quickstart alg-b session — the
// bench's hourly-resume shape — with the fleet it runs on.
func agedQuickstart(tb testing.TB) (*stream.Session, []model.ServerType) {
	tb.Helper()
	sc, _ := Lookup("quickstart")
	ins := sc.Instance(1)
	sess, err := OpenSession("alg-b", ins.Types, stream.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for s := 0; s < 2000; s++ {
		if _, err := sess.FeedDemand(ins.Lambda[s%ins.T()]); err != nil {
			tb.Fatal(err)
		}
	}
	return sess, ins.Types
}

// Replaying a checkpoint allocates per session, not per slot: the log is
// sized once and every slot goes through Push with one reused advisory,
// resolved into the one slot each consumer keeps. A 2000-slot resume
// allocates 47 objects in each of 5 processes (52 before a slot was
// resolved into the SlotInput its consumer keeps). Under the race
// detector, whose counts vary, the bound stays at its earlier 200.
func TestResumeAllocs(t *testing.T) {
	sess, types := agedQuickstart(t)
	cp := sess.Checkpoint()
	avg := testing.AllocsPerRun(5, func() {
		if _, err := ResumeSession(cp, types, stream.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	limit := 47.0
	if raceEnabled {
		limit = 200
	}
	if avg > limit {
		t.Fatalf("resuming a %d-slot checkpoint allocates %v times, want <= %v", len(cp.Slots), avg, limit)
	}
}

// BenchmarkSessionResume measures one resume of a 2000-slot quickstart
// alg-b session — the bench's hourly-resume shape — by replaying its log
// and by restoring its saved state alone.
func BenchmarkSessionResume(b *testing.B) {
	sess, types := agedQuickstart(b)
	cp, state := sess.Checkpoint(), sess.AppendState(nil)
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ResumeSession(cp, types, stream.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RestoreSessionFromState(cp.Alg, state, types, stream.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
