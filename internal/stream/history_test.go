package stream

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// The running log hash a saved state is bound by stays equal to the hash
// of the whole log on every path that grows or rebuilds a log: fresh
// pushes, a rejected slot, Resume, Restore and ReplayDelta.
func TestRunningLogHash(t *testing.T) {
	check := func(label string, s *Session) {
		t.Helper()
		if want := logHash(s.log); s.hash != want {
			t.Fatalf("%s: running hash %x, logHash %x", label, s.hash, want)
		}
	}
	for _, c := range restoreCases() {
		s := newCaseSession(t, c)
		check(c.name+" fresh", s)
		feedTo(t, s, 25)
		check(c.name+" pushed", s)
		if _, err := s.Feed(model.SlotInput{Lambda: -1}); err == nil {
			t.Fatalf("%s: negative demand accepted", c.name)
		}
		check(c.name+" rejected slot", s)

		cp, state := s.Checkpoint(), s.AppendState(nil)
		alg, _ := c.mk()
		resumed, err := Resume(alg, sharingFleet(), c.opts, cp)
		if err != nil {
			t.Fatal(err)
		}
		check(c.name+" resumed", resumed)
		restored, ok, err := Restore(c.mk, sharingFleet(), c.opts, cp, state)
		if err != nil || !ok {
			t.Fatalf("%s: restored=%v err=%v", c.name, ok, err)
		}
		check(c.name+" restored", restored)
		var delta []model.SlotInput
		for i := 20; i <= 32; i++ {
			in := restoreInput(i)
			in.T = i
			delta = append(delta, in)
		}
		if _, err := restored.ReplayDelta(delta); err != nil {
			t.Fatal(err)
		}
		check(c.name+" replayed", restored)
		feedTo(t, restored, 40)
		check(c.name+" pushed after restore", restored)
	}
}

// held counts the slot inputs a session keeps resident besides its
// replay log: its accumulator's, its buffered window's and its own
// telemetry tracker's.
func held(s *Session) int {
	n := s.acc.Instance().T() + len(s.window)
	if s.opt != nil {
		n += s.opt.Held()
	}
	return n
}

// A session's memory does not grow with its age: after 10 000 pushes it
// holds one slot for Algorithms A and B (whose own trackers hold one,
// see core's TestHeldSlotsBoundedAlgorithms) and at most w+1 for a
// lookahead-w controller, whose decisions lag.
func TestHeldSlotsBoundedSession(t *testing.T) {
	types := sharingFleet()
	cases := []struct {
		name string
		mk   func() (core.Online, error)
		max  int
	}{
		{"alg-a", func() (core.Online, error) { return core.NewAlgorithmA(types) }, 1},
		{"alg-b", func() (core.Online, error) { return core.NewAlgorithmB(types) }, 1},
		{"lookahead-1", func() (core.Online, error) { return baseline.NewLookahead(types, 1) }, 2},
		{"lookahead-3", func() (core.Online, error) { return baseline.NewLookahead(types, 3) }, 4},
	}
	for _, c := range cases {
		alg, err := c.mk()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(alg, types, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var adv Advisory
		for i := 1; i <= 10000; i++ {
			if _, err := s.Push(restoreInput(i%40+1), &adv); err != nil {
				t.Fatalf("%s slot %d: %v", c.name, i, err)
			}
			if h := held(s); h > c.max {
				t.Fatalf("%s holds %d slots after %d pushes, want <= %d", c.name, h, i, c.max)
			}
		}
	}
}
