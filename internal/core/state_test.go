package core

import (
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
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
// costs — and keep the same pending power-ups.
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
		for j := range a.types {
			for _, q := range [][2]*powerUps{{&a.types[j].powerUps, &freshA.types[j].powerUps}, {&b.types[j].powerUps, &freshB.types[j].powerUps}} {
				if want, got := q[0].events[q[0].head:], q[1].events[q[1].head:]; !slices.Equal(want, got) {
					t.Fatalf("trial %d type %d: pending power-ups %v, restored %v", trial, j, want, got)
				}
			}
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
// holds none, and their power-up queues hold room for a few events, not
// one per power-up so far.
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
	for j := range a.types {
		for name, q := range map[string]*powerUps{"A": &a.types[j].powerUps, "B": &b.types[j].powerUps} {
			if c := cap(q.events); c > 16 {
				t.Errorf("Algorithm %s's type %d keeps room for %d power-up events after 100 000 slots, want <= 16", name, j, c)
			}
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
// diverge on a later slot. Both algorithms keep the same queue of
// pending power-ups and are broken the same ways; A's must also lie in
// its window (t − t̄, t].
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
	flipOpt := func(state []byte) []byte {
		state[len(statebuf.AppendInt(statebuf.AppendHeader(nil, 0, 0), cut))] ^= 1
		return state
	}
	// queue returns type j's power-up queue; live its pending power-ups.
	queue := func(alg Snapshotter, j int) *powerUps {
		if a, ok := alg.(*AlgorithmA); ok {
			return &a.types[j].powerUps
		}
		return &alg.(*AlgorithmB).types[j].powerUps
	}
	live := func(alg Snapshotter, j int) []powerUp {
		q := queue(alg, j)
		if ev := q.events[q.head:]; len(ev) >= 2 {
			return ev
		}
		t.Fatalf("type %d has fewer than two live power-ups; the stream no longer covers the ordering check", j)
		return nil
	}
	type inconsistency struct {
		name   string
		mk     func() Snapshotter
		breakA func(alg Snapshotter)     // breaks the live algorithm before AppendState
		breakS func(state []byte) []byte // breaks the state bytes after it
	}
	cases := []inconsistency{
		{"A/power-up-expired", newA, func(alg Snapshotter) { live(alg, 1)[0].slot = cut - 4 }, nil},
		{"A/opt-cost", newA, nil, flipOpt},
		{"B/opt-cost", newB, nil, flipOpt},
	}
	// Both queues are broken the same ways: A's on type 1 (t̄ = 4; type
	// 0's t̄ = 2 leaves too few live power-ups), B's on type 0.
	for _, alg := range []struct {
		name string
		mk   func() Snapshotter
		j    int
	}{{"A", newA, 1}, {"B", newB, 0}} {
		j := alg.j
		cases = append(cases,
			inconsistency{alg.name + "/x-off-events", alg.mk, func(alg Snapshotter) { queue(alg, 1-j).x++ }, nil},
			inconsistency{alg.name + "/negative-count", alg.mk, func(alg Snapshotter) {
				ev := live(alg, j)
				ev[0].count, ev[1].count = -1, ev[1].count+ev[0].count+1
			}, nil},
			inconsistency{alg.name + "/zero-count", alg.mk, func(alg Snapshotter) {
				ev := live(alg, j)
				ev[0].count, ev[1].count = 0, ev[1].count+ev[0].count
			}, nil},
			inconsistency{alg.name + "/slots-out-of-order", alg.mk, func(alg Snapshotter) {
				ev := live(alg, j)
				ev[0].slot, ev[1].slot = ev[1].slot, ev[0].slot
			}, nil},
			inconsistency{alg.name + "/slot-past-t", alg.mk, func(alg Snapshotter) {
				ev := live(alg, j)
				ev[len(ev)-1].slot = cut + 1
			}, nil},
		)
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

// Version 1 of Algorithm A's state, which held each type's whole
// power-up history, is refused: testdata/algorithm_a_v1.hex is the
// state the version-1 codec saved after inconsistentDemand.
func TestRestoreRefusesVersion1StateA(t *testing.T) {
	raw, err := os.ReadFile("testdata/algorithm_a_v1.hex")
	if err != nil {
		t.Fatal(err)
	}
	state, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil || len(state) < 2 || state[0] != stateKindA || state[1] != 1 {
		t.Fatalf("fixture is no version-1 Algorithm A state (%v)", err)
	}
	a, _ := NewAlgorithmA(inconsistentFleet())
	a.Seek(len(inconsistentDemand))
	if err := a.RestoreState(state); !errors.Is(err, statebuf.ErrVersion) {
		t.Fatalf("restoring a version-1 state: %v, want ErrVersion", err)
	}
}
