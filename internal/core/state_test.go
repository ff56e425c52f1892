package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/statebuf"
)

// restoreAt steps alg over slots 1..cut of ins, saves its state, and
// restores it into the never-stepped fresh after a Seek past those slots.
func restoreAt(t *testing.T, ins *model.Instance, alg, fresh Snapshotter, cut int) {
	t.Helper()
	var in model.SlotInput
	for s := 1; s <= cut; s++ {
		ins.SlotInto(s, &in)
		alg.Step(in)
	}
	fresh.Seek(cut)
	if err := fresh.RestoreState(alg.AppendState(nil)); err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
}

// Algorithms A and B restored from their state at a random cut continue
// bit-identically to the originals — decisions, prefix optima and their
// costs — and A keeps its whole power-up history.
func TestSnapshotterRestoresBitIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		ins := randomStaticInstance(rng, 3, 5, 30)
		cut := rng.Intn(ins.T() + 1)
		a, _ := NewAlgorithmA(ins.Types)
		freshA, _ := NewAlgorithmA(ins.Types)
		b, _ := NewAlgorithmB(ins.Types)
		freshB, _ := NewAlgorithmB(ins.Types)
		restoreAt(t, ins, a, freshA, cut)
		restoreAt(t, ins, b, freshB, cut)
		if !reflect.DeepEqual(a.PowerUpHistory(), freshA.PowerUpHistory()) {
			t.Fatalf("trial %d: power-up history %v, restored %v", trial, a.PowerUpHistory(), freshA.PowerUpHistory())
		}
		var in model.SlotInput
		for s := cut + 1; s <= ins.T(); s++ {
			ins.SlotInto(s, &in)
			for _, p := range [][2]Snapshotter{{a, freshA}, {b, freshB}} {
				want, got := p[0].Step(in).Clone(), p[1].Step(in)
				wc := p[0].(Tracked).Tracker().Opt()
				gc := p[1].(Tracked).Tracker().Opt()
				if !want.Equal(got) || math.Float64bits(wc) != math.Float64bits(gc) {
					t.Fatalf("trial %d slot %d %s: %v (opt %v), restored %v (opt %v)", trial, s, p[0].Name(), want, wc, got, gc)
				}
			}
		}
		if !a.PrefixOpt().Equal(freshA.PrefixOpt()) || !b.PrefixOpt().Equal(freshB.PrefixOpt()) {
			t.Fatalf("trial %d: prefix optima diverged", trial)
		}
	}
}

// A state is refused by the other algorithm and by a fleet it does not
// fit.
func TestSnapshotterRejectsForeignState(t *testing.T) {
	ins := randomStaticInstance(rand.New(rand.NewSource(4)), 2, 4, 10)
	b, _ := NewAlgorithmB(ins.Types)
	var in model.SlotInput
	for s := 1; s <= ins.T(); s++ {
		ins.SlotInto(s, &in)
		b.Step(in)
	}
	a, _ := NewAlgorithmA(ins.Types)
	if err := a.RestoreState(b.AppendState(nil)); !errors.Is(err, statebuf.ErrVersion) {
		t.Fatalf("Algorithm A loading a B state: %v, want ErrVersion", err)
	}
	other := append([]model.ServerType(nil), ins.Types...)
	other[0].SwitchCost++
	b2, _ := NewAlgorithmB(other)
	b2.Seek(ins.T())
	if err := b2.RestoreState(b.AppendState(nil)); !errors.Is(err, statebuf.ErrMalformed) {
		t.Fatalf("Algorithm B loading a state of another fleet: %v, want ErrMalformed", err)
	}
}

// Algorithms A and B keep no input history: after 100 000 steps their
// prefix trackers hold one slot, one restored after a Seek past them
// holds none, and Algorithm B's power-up queue holds room for a few
// events, not one per power-up so far.
func TestHeldSlotsBoundedAlgorithms(t *testing.T) {
	ins := randomStaticInstance(rand.New(rand.NewSource(8)), 2, 4, 50)
	a, _ := NewAlgorithmA(ins.Types)
	b, _ := NewAlgorithmB(ins.Types)
	freshB, _ := NewAlgorithmB(ins.Types)
	var in model.SlotInput
	const n = 100000
	for s := 0; s < n; s++ {
		ins.SlotInto(s%ins.T()+1, &in)
		in.T = s + 1
		a.Step(in)
		b.Step(in)
	}
	freshB.Seek(n)
	if err := freshB.RestoreState(b.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]interface{ Held() int }{"A": a.tracker, "B": b.tracker, "restored B": freshB.tracker} {
		if h := tr.Held(); h > 1 {
			t.Errorf("Algorithm %s's tracker holds %d slots after 100 000, want <= 1", name, h)
		}
	}
	for j, st := range b.types {
		if c := cap(st.events); c > 16 {
			t.Errorf("Algorithm B's type %d keeps room for %d power-up events after 100 000 slots, want <= 16", j, c)
		}
	}
}

// inconsistentFleet and inconsistentDemand step Algorithms A and B into a
// state with live power-ups on both types: demand rises for six slots,
// and type 0's t̄ = 2 has expired the first four slots' power-ups.
func inconsistentFleet() []model.ServerType {
	return []model.ServerType{
		{Count: 8, SwitchCost: 2, MaxLoad: 1, Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 0.5}}},
		{Count: 3, SwitchCost: 12, MaxLoad: 4, Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.3}}},
	}
}

var inconsistentDemand = []float64{2, 5, 9, 13, 16, 18}

// A state that decodes but whose power-down machines break their
// invariants, or whose prefix-optimum cost is not its tracker's, is
// refused as malformed, so a session restoring it replays its log
// instead: restored, it would panic (ClampTo accounting mismatch) or
// diverge on a later slot.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	types := inconsistentFleet()
	cut := len(inconsistentDemand)
	stepped := func(alg Snapshotter) Snapshotter {
		for s, l := range inconsistentDemand {
			alg.Step(model.SlotInput{T: s + 1, Lambda: l})
		}
		return alg
	}
	newA := func() Snapshotter { a, _ := NewAlgorithmA(types); return a }
	newB := func() Snapshotter { b, _ := NewAlgorithmB(types); return b }
	// flipOpt changes the saved prefix-optimum cost by one ulp.
	flipOpt := func(state []byte, kind byte) {
		state[len(statebuf.AppendInt(statebuf.AppendHeader(nil, kind, stateVersion), cut))] ^= 1
	}
	liveB := func(alg Snapshotter) []eventB {
		live := alg.(*AlgorithmB).types[0]
		if ev := live.events[live.head:]; len(ev) >= 2 {
			return ev
		}
		t.Fatal("type 0 has fewer than two live power-ups; the stream no longer covers the ordering check")
		return nil
	}
	cases := []struct {
		name   string
		mk     func() Snapshotter
		breakA func(alg Snapshotter)     // breaks the live algorithm before AppendState
		breakS func(state []byte) []byte // breaks the state bytes after it
	}{
		{"A/x-off-window", newA, func(alg Snapshotter) { alg.(*AlgorithmA).types[0].x++ }, nil},
		{"A/negative-expired-power-up", newA, func(alg Snapshotter) { alg.(*AlgorithmA).types[0].w[0] = -1 }, nil},
		{"A/negative-live-power-up", newA, func(alg Snapshotter) {
			st := alg.(*AlgorithmA).types[1]
			st.w[cut-1], st.w[cut-2] = -1, st.w[cut-2]+st.w[cut-1]+1
		}, nil},
		{"A/opt-cost", newA, nil, func(state []byte) []byte { flipOpt(state, stateKindA); return state }},
		{"B/x-off-events", newB, func(alg Snapshotter) { alg.(*AlgorithmB).types[1].x++ }, nil},
		{"B/negative-count", newB, func(alg Snapshotter) {
			ev := liveB(alg)
			ev[0].count, ev[1].count = -1, ev[1].count+ev[0].count+1
		}, nil},
		{"B/slots-out-of-order", newB, func(alg Snapshotter) {
			ev := liveB(alg)
			ev[0].slot, ev[1].slot = ev[1].slot, ev[0].slot
		}, nil},
		{"B/slot-past-t", newB, func(alg Snapshotter) {
			ev := liveB(alg)
			ev[len(ev)-1].slot = cut + 1
		}, nil},
		{"B/opt-cost", newB, nil, func(state []byte) []byte { flipOpt(state, stateKindB); return state }},
	}
	for _, c := range cases {
		fresh := c.mk()
		fresh.Seek(cut)
		if err := fresh.RestoreState(stepped(c.mk()).AppendState(nil)); err != nil {
			t.Fatalf("%s: the intact state is refused: %v", c.name, err)
		}
		alg := stepped(c.mk())
		if c.breakA != nil {
			c.breakA(alg)
		}
		state := alg.AppendState(nil)
		if c.breakS != nil {
			state = c.breakS(state)
		}
		fresh = c.mk()
		fresh.Seek(cut)
		if err := fresh.RestoreState(state); !errors.Is(err, statebuf.ErrMalformed) {
			t.Errorf("%s: restore returned %v, want ErrMalformed", c.name, err)
		}
	}
}
