package stream

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
)

// held counts the slot inputs a session keeps resident besides its
// replay log: the slot it is feeding, its buffered window's and its own
// telemetry tracker's.
func held(s *Session) int {
	n := min(s.fed, 1) + len(s.window)
	if s.ownsTel() {
		n += s.tel.Held()
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
