package engine

import (
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/stream"
)

// stateGrowth is how much a session's state may grow from 10³ to 10⁵
// slots: the slot numbers it holds — the slot counts of the session, the
// algorithm and its tracker, and each pending power-up's slot — widen by
// a varint byte.
const stateGrowth = 16

// stateLens feeds alg a session over types for 10⁵ slots and returns
// the length of its AppendState after 10³, 10⁴ and 10⁵ of them.
func stateLens(t *testing.T, alg string, types []model.ServerType, slot func(t int) model.SlotInput) []int {
	t.Helper()
	s, err := OpenSession(alg, types, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lens []int
	for n := 1; n <= 100000; n++ {
		if _, err := s.Feed(slot(n)); err != nil {
			t.Fatalf("%s slot %d: %v", alg, n, err)
		}
		if n == 1000 || n == 10000 || n == 100000 {
			lens = append(lens, len(s.AppendState(nil)))
		}
	}
	return lens
}

// checkStateFlat fails unless the state lengths stay within stateGrowth
// bytes of the first.
func checkStateFlat(t *testing.T, alg string, lens []int) {
	t.Helper()
	for _, n := range lens[1:] {
		if n > lens[0]+stateGrowth {
			t.Errorf("%s state after 10³, 10⁴ and 10⁵ slots: %v bytes, want within %d of the first", alg, lens, stateGrowth)
			return
		}
	}
}

// A session's saved state does not grow with the slots fed: Algorithms
// A and B save only their pending power-ups, never a power-up history.
func TestSessionStateBytesFlat(t *testing.T) {
	sc, _ := Lookup("quickstart")
	ins := sc.Instance(1)
	for _, alg := range []string{"alg-a", "alg-b"} {
		checkStateFlat(t, alg, stateLens(t, alg, ins.Types, func(n int) model.SlotInput {
			return model.SlotInput{Lambda: ins.Lambda[(n-1)%ins.T()]}
		}))
	}
}

// A clamp to a shrunken fleet drops the power-ups it releases whole: on
// a type with zero idle cost, where nothing ever expires, a fleet that
// alternates between 4 servers and none keeps the state flat instead of
// one empty power-up per shrink.
func TestClampedSessionStateBytesFlat(t *testing.T) {
	types := []model.ServerType{{Count: 4, SwitchCost: 2, MaxLoad: 1, Cost: model.Static{F: costfn.Affine{Idle: 0, Rate: 1}}}}
	for _, alg := range []string{"alg-a", "alg-b"} {
		checkStateFlat(t, alg, stateLens(t, alg, types, func(n int) model.SlotInput {
			if n%2 == 1 {
				return model.SlotInput{Lambda: 2, Counts: []int{4}}
			}
			return model.SlotInput{Lambda: 0, Counts: []int{0}}
		}))
	}
}
