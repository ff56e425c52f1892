package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
)

// A stream tracker answers g_t(x) from the layer its step evaluated, bit
// for bit what solving x's dispatch program gives, for every x of the
// slot's full lattice that lies on the tracker's lattice — with the memo,
// without it, over workers and over time-varying fleets — and
// declines exactly the x a reduced lattice does not hold.
func TestTrackerGMatchesSlotEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		ins := randomInstance(rng, 3, 5, 12)
		if trial%2 == 1 {
			// The template holds one more server of each type than most
			// slots, which a third of the slots bring online.
			ins.Counts = make([][]int, ins.T())
			for s := range ins.Counts {
				ins.Counts[s] = make([]int, ins.D())
				for j, st := range ins.Types {
					ins.Counts[s][j] = st.Count
					if s%3 == 1 {
						ins.Counts[s][j] = st.Count + 1
					}
				}
			}
			for j := range ins.Types {
				ins.Types[j].Count++
			}
		}
		for _, run := range []struct {
			opts Options
			memo bool
		}{{Options{}, true}, {Options{}, false}, {Options{Workers: 3}, true}, {Options{Gamma: 2}, true}, {Options{Gamma: 2}, false}} {
			opts := run.opts
			restore := SetMemo(run.memo)
			tr, err := NewStreamTracker(ins.Types, opts)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := tr.G(make(model.Config, ins.D())); ok {
				t.Fatal("G answered before the first slot")
			}
			eval := model.NewEvaluator(&model.Instance{Types: ins.Types})
			var in model.SlotInput
			for s := 1; s <= ins.T(); s++ {
				ins.SlotInto(s, &in)
				if _, _, err := tr.Push(in); err != nil {
					t.Fatal(err)
				}
				eval.Prepare(in)
				full := grid.NewFull(in.Counts)
				x := make(model.Config, ins.D())
				for idx := 0; idx < full.Size(); idx++ {
					full.Decode(idx, x)
					g, ok := tr.G(x)
					_, onLattice := tr.Lattice().Encode(x)
					if ok != onLattice {
						t.Fatalf("trial %d %+v slot %d x=%v: ok=%v, on lattice %v", trial, opts, s, x, ok, onLattice)
					}
					if want := eval.GPrepared(x); ok && math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("trial %d %+v slot %d x=%v: layer %v, solve %v", trial, opts, s, x, g, want)
					}
				}
			}
		}
	}
}

// Slots the memo cannot key are evaluated into the pure g-layer too, so
// a tracker over an unmemoisable fleet answers from its layer as well.
func TestTrackerGUnmemoisable(t *testing.T) {
	types := []model.ServerType{
		{Count: 3, SwitchCost: 2, MaxLoad: 1, Cost: model.Static{F: opaqueFn{rate: 0.7}}},
		{Count: 2, SwitchCost: 5, MaxLoad: 2, Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 0.4}}},
	}
	tr, err := NewStreamTracker(types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval := model.NewEvaluator(&model.Instance{Types: types})
	for s, lambda := range []float64{0.5, 3.2, 6.9, 1.1} {
		if _, _, err := tr.Push(model.SlotInput{Lambda: lambda}); err != nil {
			t.Fatal(err)
		}
		in := model.SlotInput{T: s + 1, Lambda: lambda, Costs: []costfn.Func{opaqueFn{rate: 0.7}, costfn.Affine{Idle: 1, Rate: 0.4}}, Counts: []int{3, 2}}
		eval.Prepare(in)
		for _, x := range []model.Config{{0, 0}, {3, 2}, {1, 2}, {3, 0}} {
			g, ok := tr.G(x)
			if want := eval.GPrepared(x); !ok || math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("slot %d x=%v: layer (%v, %v), solve %v", s+1, x, g, ok, want)
			}
		}
	}
}

// A stream tracker's memory does not grow with the stream: after 10 000
// pushes, over static and time-varying fleets, it holds one slot.
func TestHeldSlotsBoundedTracker(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(5)), 2, 3, 40)
	// Most slots run one server of each type fewer than the template;
	// every seventh brings them online.
	counts := make([]int, ins.D())
	for j := range ins.Types {
		counts[j] = ins.Types[j].Count
		ins.Types[j].Count++
	}
	tr, err := NewStreamTracker(ins.Types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10000; s++ {
		in := model.SlotInput{Lambda: ins.Lambda[s%ins.T()], Counts: counts}
		if s%7 == 3 {
			in.Counts = nil
		}
		if _, _, err := tr.Push(in); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Held(); h > 1 {
		t.Fatalf("stream tracker holds %d slots after %d pushes, want <= 1", h, tr.T())
	}
}
