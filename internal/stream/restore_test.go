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

// restore restores a fresh algorithm of the case from state alone.
func (c restoreCase) restore(t *testing.T, state []byte) (*Session, error) {
	t.Helper()
	alg, err := c.mk()
	if err != nil {
		t.Fatal(err)
	}
	return RestoreFromState(alg, sharingFleet(), c.opts, state)
}

// replay resumes a fresh algorithm of the case from cp's log.
func (c restoreCase) replay(t *testing.T, cp *Checkpoint) *Session {
	t.Helper()
	alg, err := c.mk()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Resume(alg, sharingFleet(), c.opts, cp)
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

// Restoring from saved state at every cut point matches replaying the
// log — the same progress, cost and saved state — and both continue
// bit-identically to the uninterrupted session, for both algorithms
// with a codec, with and without a session-owned telemetry tracker.
func TestRestoreBitIdentical(t *testing.T) {
	const n = 36
	for _, c := range restoreCases() {
		t.Run(c.name, func(t *testing.T) {
			want := feedTo(t, newCaseSession(t, c), n)
			for cut := 0; cut <= n; cut++ {
				part := newCaseSession(t, c)
				feedTo(t, part, cut)
				state := part.AppendState(nil)
				got, err := c.restore(t, state)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				replayed := c.replay(t, part.Checkpoint())
				if got.Fed() != cut || got.Decided() != replayed.Decided() || !sameBits(got.CumCost(), replayed.CumCost()) {
					t.Fatalf("cut %d: restored fed=%d decided=%d cum=%v, replayed %d, %d and %v",
						cut, got.Fed(), got.Decided(), got.CumCost(), replayed.Fed(), replayed.Decided(), replayed.CumCost())
				}
				if string(got.AppendState(nil)) != string(state) || string(replayed.AppendState(nil)) != string(state) {
					t.Fatalf("cut %d: restored and replayed sessions save another state than the one restored", cut)
				}
				checkContinuation(t, c.name+" restored", got, want, n)
				checkContinuation(t, c.name+" replayed", replayed, want, n)
			}
		})
	}
}

// Absent, damaged and foreign states are refused with an error, never
// restored into a divergent session; the replay the caller then runs
// continues bit-identically.
func TestRestoreFallsBackToReplay(t *testing.T) {
	const cut, n = 17, 30
	c := restoreCases()[1] // alg-b
	want := feedTo(t, newCaseSession(t, c), n)
	part := newCaseSession(t, c)
	feedTo(t, part, cut)
	state := part.AppendState(nil)
	cp := part.Checkpoint()

	fallsBack := func(label string, st []byte) {
		t.Helper()
		if got, err := c.restore(t, st); err == nil {
			t.Fatalf("%s: restored a state that should have been refused (fed %d)", label, got.Fed())
		}
		checkContinuation(t, label, c.replay(t, cp), want, n)
	}
	// reseal rewrites one byte of the state body and recomputes the
	// checksum, so the decoder — not the CRC — must catch it.
	reseal := func(i int, b byte) []byte {
		body := append([]byte(nil), state[:len(state)-4]...)
		body[i] = b
		return statebuf.AppendChecksum(body, 0)
	}

	fallsBack("absent", nil)
	for l := 0; l < len(state); l++ {
		fallsBack("truncated", state[:l])
	}
	for bit := 0; bit < 8*len(state); bit++ {
		flipped := append([]byte(nil), state...)
		flipped[bit/8] ^= 1 << (bit % 8)
		fallsBack("bit-flipped", flipped)
	}
	fallsBack("unknown version", reseal(1, sessionStateVersion+1))
	fallsBack("previous version", reseal(1, sessionStateVersion-1))
	fallsBack("unknown kind", reseal(0, 'Z'))

	// A well-formed state of the other algorithm passes the checksum and
	// is refused by the algorithm.
	a := restoreCases()[0]
	aPart := newCaseSession(t, a)
	feedTo(t, aPart, cut)
	fallsBack("foreign algorithm", aPart.AppendState(nil))
}

// A session whose algorithm has no state codec appends nothing, and
// RestoreFromState refuses another session's state for it.
func TestAppendStateWithoutCodec(t *testing.T) {
	types := sharingFleet()
	sess, err := New(hideTracker{mustAlgB(t, types)}, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feedTo(t, sess, 5)
	if st := sess.AppendState([]byte("x")); string(st) != "x" {
		t.Fatalf("AppendState without a codec appended %q", st[1:])
	}
	part := newCaseSession(t, restoreCases()[1])
	feedTo(t, part, 5)
	if _, err := RestoreFromState(hideTracker{mustAlgB(t, types)}, types, Options{}, part.AppendState(nil)); err == nil {
		t.Fatal("a state restored into an algorithm without a codec")
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
// the state it saves later, which restores in turn — while holding only
// the slots fed after the restore.
func TestRestoreFromStateBitIdentical(t *testing.T) {
	const n = 36
	for _, c := range restoreCases() {
		t.Run(c.name, func(t *testing.T) {
			whole := newCaseSession(t, c)
			want := feedTo(t, whole, n)
			for cut := 0; cut <= n; cut++ {
				part := newCaseSession(t, c)
				feedTo(t, part, cut)
				got, err := c.restore(t, part.AppendState(nil))
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if got.Fed() != cut || got.LogBase() != cut || got.LogTail().Len() != 0 || !sameBits(got.CumCost(), part.CumCost()) {
					t.Fatalf("cut %d: restored fed=%d base=%d tail=%d cum=%v, want %d, %d, 0 and %v",
						cut, got.Fed(), got.LogBase(), got.LogTail().Len(), got.CumCost(), cut, cut, part.CumCost())
				}
				checkContinuation(t, c.name, got, want, n)
				if got.LogTail().Len() != n-cut {
					t.Fatalf("cut %d: tail of %d records, want %d", cut, got.LogTail().Len(), n-cut)
				}
				state := got.AppendState(nil)
				if string(state) != string(whole.AppendState(nil)) {
					t.Fatalf("cut %d: the restored session saves another state than the uninterrupted one", cut)
				}
				if again, err := c.restore(t, state); err != nil || again.LogBase() != n {
					t.Fatalf("cut %d: its state does not restore again: %v", cut, err)
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

// A state body rewritten byte by byte and resealed with a fresh
// checksum passes the CRC, so the decoders alone stand between it and
// the session: none may panic or allocate by a hostile count. What they
// accept may still fail the algorithm on a later slot, which the
// session turns into its sticky error.
func TestRestoreFromStateResealedBytes(t *testing.T) {
	for _, c := range restoreCases() {
		part := newCaseSession(t, c)
		feedTo(t, part, 15)
		state := part.AppendState(nil)
		body := state[:len(state)-4]
		for i := range body {
			for _, b := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff, body[i] ^ 1} {
				mutated := append([]byte(nil), body...)
				mutated[i] = b
				got, err := c.restore(t, statebuf.AppendChecksum(mutated, 0))
				if err != nil {
					continue
				}
				for s, end := got.Fed()+1, got.Fed()+3; s <= end; s++ {
					got.Feed(restoreInput(s))
				}
			}
		}
	}
}

// A state saved with telemetry does not restore into a DisableOpt
// session, nor the reverse: the caller replays instead, and the session
// it gets saves, right away and after two more slots, the same bytes as
// a session of its own kind fed the same slots. Restored as it was, the
// session kept the other kind's prefix optimum in every state it saved.
func TestRestoreFromStateRefusesTelemetryMismatch(t *testing.T) {
	types := sharingFleet()
	mk := func() core.Online {
		b, err := core.NewAlgorithmB(types)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name            string
		saved, restored Options
	}{
		{"telemetry into DisableOpt", Options{}, Options{DisableOpt: true}},
		{"DisableOpt into telemetry", Options{DisableOpt: true}, Options{}},
	} {
		saver, err := New(mk(), types, c.saved)
		if err != nil {
			t.Fatal(err)
		}
		feedTo(t, saver, 10)
		got, err := RestoreFromState(mk(), types, c.restored, saver.AppendState(nil))
		if err == nil {
			t.Errorf("%s: the state restored", c.name)
		} else if got, err = Resume(mk(), types, c.restored, saver.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		want, err := New(mk(), types, c.restored)
		if err != nil {
			t.Fatal(err)
		}
		feedTo(t, want, 10)
		for _, n := range []int{10, 12} {
			feedTo(t, got, n)
			feedTo(t, want, n)
			if string(got.AppendState(nil)) != string(want.AppendState(nil)) {
				t.Fatalf("%s, slot %d: the resumed session saves another state than one fed from the start", c.name, n)
			}
		}
	}
}
