package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

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
				wc, _ := p[0].(OptTracking).PrefixOptCost()
				gc, _ := p[1].(OptTracking).PrefixOptCost()
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
