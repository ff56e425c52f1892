package stream

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/statebuf"
)

// restoreCase is one way to build a session that has a state codec.
type restoreCase struct {
	name string
	mk   func() (core.Online, error)
	opts Options
}

func restoreCases() []restoreCase {
	types := sharingFleet()
	return []restoreCase{
		{"alg-a", func() (core.Online, error) { return core.NewAlgorithmA(types) }, Options{}},
		{"alg-b", func() (core.Online, error) { return core.NewAlgorithmB(types) }, Options{}},
		// A reduced-lattice tracker is not shared, so the session's own
		// telemetry tracker has state to save too.
		{"alg-b/gamma", func() (core.Online, error) {
			return core.NewAlgorithmBWithOptions(types, core.Options{TrackerGamma: 1.5})
		}, Options{}},
		{"alg-a/no-opt", func() (core.Online, error) { return core.NewAlgorithmA(types) }, Options{DisableOpt: true}},
	}
}

// restoreInput is slot t of the test stream: sharingTrace's demand, with
// the fleet shrinking and growing between slots 10 and 20 so the state
// crosses lattice changes and Algorithm A/B's power-down clamps.
func restoreInput(t int) model.SlotInput {
	tr := sharingTrace()
	in := model.SlotInput{Lambda: tr[(t-1)%len(tr)]}
	if t >= 10 && t < 20 {
		in.Counts = []int{8, 1 + t%3}
		if max := 8 + 4*float64(in.Counts[1]); in.Lambda > max {
			in.Lambda = max
		}
	}
	return in
}

// feedTo feeds s up to slot n and returns the advisories.
func feedTo(t *testing.T, s *Session, n int) []Advisory {
	t.Helper()
	var out []Advisory
	for s.Fed() < n {
		advs, err := s.Feed(restoreInput(s.Fed() + 1))
		if err != nil {
			t.Fatalf("slot %d: %v", s.Fed()+1, err)
		}
		out = append(out, advs...)
	}
	return out
}

func newCaseSession(t *testing.T, c restoreCase) *Session {
	t.Helper()
	alg, err := c.mk()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(alg, sharingFleet(), c.opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkContinuation feeds got to slot n and checks progress, cost and
// every advisory bit for bit against an uninterrupted session's.
func checkContinuation(t *testing.T, label string, got *Session, want []Advisory, n int) {
	t.Helper()
	from := got.Fed()
	advs := feedTo(t, got, n)
	if got.Decided() != n || len(advs) != n-from {
		t.Fatalf("%s: decided %d (%d advisories), want %d", label, got.Decided(), len(advs), n)
	}
	for i, a := range advs {
		if w := want[from+i]; !advisoriesEqual(a, w) {
			t.Fatalf("%s: slot %d advisory %+v, uninterrupted %+v", label, w.Slot, a, w)
		}
	}
}

// Restoring from saved state at every cut point continues bit-identically
// to the uninterrupted session, for both algorithms with a codec, with
// and without a session-owned telemetry tracker.
func TestRestoreBitIdentical(t *testing.T) {
	const n = 36
	for _, c := range restoreCases() {
		t.Run(c.name, func(t *testing.T) {
			want := feedTo(t, newCaseSession(t, c), n)
			for cut := 0; cut <= n; cut++ {
				part := newCaseSession(t, c)
				feedTo(t, part, cut)
				state := part.AppendState(nil)
				got, restored, err := Restore(c.mk, sharingFleet(), c.opts, part.Checkpoint(), state)
				if err != nil || !restored {
					t.Fatalf("cut %d: restored=%v err=%v", cut, restored, err)
				}
				if got.Fed() != cut || !sameBits(got.CumCost(), part.CumCost()) {
					t.Fatalf("cut %d: restored fed=%d cum=%v, want %d and %v", cut, got.Fed(), got.CumCost(), cut, part.CumCost())
				}
				checkContinuation(t, c.name, got, want, n)
			}
		})
	}
}

// Damaged, foreign and mismatched states never yield a divergent
// session: Restore falls back to replay, which still continues
// bit-identically.
func TestRestoreFallsBackToReplay(t *testing.T) {
	const cut, n = 17, 30
	c := restoreCases()[1] // alg-b
	want := feedTo(t, newCaseSession(t, c), n)
	part := newCaseSession(t, c)
	feedTo(t, part, cut)
	state := part.AppendState(nil)
	cp := part.Checkpoint()

	fallsBack := func(label string, cp *Checkpoint, st []byte) {
		t.Helper()
		got, restored, err := Restore(c.mk, sharingFleet(), c.opts, cp, st)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if restored {
			t.Fatalf("%s: restored from a state that should have been refused", label)
		}
		checkContinuation(t, label, got, want, n)
	}
	// reseal rewrites one byte of the state body and recomputes the
	// checksum, so the decoder — not the CRC — must catch it.
	reseal := func(i int, b byte) []byte {
		body := append([]byte(nil), state[:len(state)-4]...)
		body[i] = b
		return statebuf.AppendChecksum(body, 0)
	}

	fallsBack("absent", cp, nil)
	for l := 0; l < len(state); l++ {
		fallsBack("truncated", cp, state[:l])
	}
	for bit := 0; bit < 8*len(state); bit++ {
		flipped := append([]byte(nil), state...)
		flipped[bit/8] ^= 1 << (bit % 8)
		fallsBack("bit-flipped", cp, flipped)
	}
	fallsBack("unknown version", cp, reseal(1, sessionStateVersion+1))
	fallsBack("unknown kind", cp, reseal(0, 'Z'))

	// The same state against other logs: one more slot, or the same
	// length with one demand changed.
	longer := newCaseSession(t, c)
	feedTo(t, longer, cut+1)
	got, restored, err := Restore(c.mk, sharingFleet(), c.opts, longer.Checkpoint(), state)
	if err != nil || restored || got.Fed() != cut+1 {
		t.Fatalf("longer log: restored=%v fed=%d err=%v, want a replay to %d", restored, got.Fed(), err, cut+1)
	}
	other := part.Checkpoint()
	other.Slots[3].Lambda += 0.5
	got, restored, err = Restore(c.mk, sharingFleet(), c.opts, other, state)
	if err != nil || restored {
		t.Fatalf("altered log: restored=%v err=%v, want a replay", restored, err)
	}
	if replayed, _ := Resume(mustAlgB(t, sharingFleet()), sharingFleet(), c.opts, other); !sameBits(got.CumCost(), replayed.CumCost()) {
		t.Fatalf("altered log: cum %v, replay %v", got.CumCost(), replayed.CumCost())
	}

	// A well-formed state of the other algorithm over the same log passes
	// the checksum and the log binding, and is refused by the algorithm
	// after the refill; the replay must then run on a fresh algorithm.
	a := restoreCases()[0]
	aPart := newCaseSession(t, a)
	feedTo(t, aPart, cut)
	fallsBack("foreign algorithm", cp, aPart.AppendState(nil))
}

// A session whose algorithm has no state codec appends nothing, and
// Restore replays its log even when handed another session's state.
func TestAppendStateWithoutCodec(t *testing.T) {
	types := sharingFleet()
	sess, err := New(hideOptTracking{mustAlgB(t, types)}, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feedTo(t, sess, 5)
	if st := sess.AppendState([]byte("x")); string(st) != "x" {
		t.Fatalf("AppendState without a codec appended %q", st[1:])
	}
	c := restoreCases()[1]
	part := newCaseSession(t, c)
	feedTo(t, part, 5)
	mk := func() (core.Online, error) { return hideOptTracking{mustAlgB(t, types)}, nil }
	got, restored, err := Restore(mk, types, Options{}, sess.Checkpoint(), part.AppendState(nil))
	if err != nil || restored || got.Fed() != 5 {
		t.Fatalf("no codec: restored=%v fed=%d err=%v, want a replay", restored, got.Fed(), err)
	}
}

// NaN demand passes both ordered comparisons (negative, above capacity),
// so it used to be advised zero servers and then poison the checkpoint:
// encoding/json cannot marshal NaN, so the session could never be saved.
func TestSessionRejectsNonFiniteDemand(t *testing.T) {
	s := open(t, Options{})
	for _, l := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := s.FeedDemand(l); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("FeedDemand(%v): err = %v, want a non-finite demand error", l, err)
		}
	}
	if s.Fed() != 0 {
		t.Fatalf("fed = %d after rejected demands, want 0", s.Fed())
	}
	if _, err := s.FeedDemand(2); err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(s.Checkpoint()); err != nil {
		t.Fatalf("checkpoint after rejected demands does not marshal: %v", err)
	}
}

// A session restored from its state alone continues bit-identically to
// the uninterrupted session at every cut point — advisories, costs and
// the state it saves later — while holding only the slots fed after the
// restore. Its running hash still covers the whole log, so the state it
// saves binds to the whole log when one is decoded.
func TestRestoreFromStateBitIdentical(t *testing.T) {
	const n = 36
	for _, c := range restoreCases() {
		t.Run(c.name, func(t *testing.T) {
			whole := newCaseSession(t, c)
			want := feedTo(t, whole, n)
			for cut := 0; cut <= n; cut++ {
				part := newCaseSession(t, c)
				feedTo(t, part, cut)
				alg, err := c.mk()
				if err != nil {
					t.Fatal(err)
				}
				got, err := RestoreFromState(alg, sharingFleet(), c.opts, part.AppendState(nil))
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if got.Fed() != cut || got.LogBase() != cut || len(got.LogTail()) != 0 || !sameBits(got.CumCost(), part.CumCost()) {
					t.Fatalf("cut %d: restored fed=%d base=%d tail=%d cum=%v, want %d, %d, 0 and %v",
						cut, got.Fed(), got.LogBase(), len(got.LogTail()), got.CumCost(), cut, cut, part.CumCost())
				}
				checkContinuation(t, c.name, got, want, n)
				if len(got.LogTail()) != n-cut || got.hash != whole.hash {
					t.Fatalf("cut %d: tail of %d records, hash %x; want %d and the whole log's %x", cut, len(got.LogTail()), got.hash, n-cut, whole.hash)
				}
				state := got.AppendState(nil)
				if string(state) != string(whole.AppendState(nil)) {
					t.Fatalf("cut %d: the restored session saves another state than the uninterrupted one", cut)
				}
				if _, restored, err := Restore(c.mk, sharingFleet(), c.opts, whole.Checkpoint(), state); err != nil || !restored {
					t.Fatalf("cut %d: its state does not restore over the whole log: restored=%v err=%v", cut, restored, err)
				}
			}
		})
	}
}

// RestoreFromState refuses what it cannot restore — a damaged state, an
// algorithm without a codec — and a session restored past slot 0 cannot
// checkpoint the log it does not hold.
func TestRestoreFromStateRefuses(t *testing.T) {
	c := restoreCases()[1] // alg-b
	part := newCaseSession(t, c)
	feedTo(t, part, 12)
	state := part.AppendState(nil)
	damaged := append([]byte(nil), state...)
	damaged[len(damaged)/2] ^= 1
	fresh, _ := c.mk()
	if _, err := RestoreFromState(fresh, sharingFleet(), c.opts, damaged); err == nil {
		t.Fatal("damaged state restored")
	}
	alg, err := core.NewAlgorithmC(sharingFleet(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFromState(alg, sharingFleet(), c.opts, state); err == nil {
		t.Fatal("state restored into an algorithm without a codec")
	}
	fresh, _ = c.mk()
	got, err := RestoreFromState(fresh, sharingFleet(), c.opts, state)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Checkpoint of a session restored past slot 12 did not panic")
		}
	}()
	got.Checkpoint()
}
