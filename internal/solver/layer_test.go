package solver

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

// FuzzLayer checks Layer.Push against the one-cell oracle: on random
// fleets of every cost family, with time-varying counts and the memo on
// or off, every pushed layer covers the slot's exact lattice and each of
// its cells equals model.Evaluator.G bit for bit. Some slots are pushed
// twice in a row; with the memo on and a memoisable slot the second push
// solves no cell. An infeasible slot is refused and leaves the front end
// as it was.
func FuzzLayer(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(6+seed), seed%2 == 1, seed%4 < 2)
	}
	f.Fuzz(func(t *testing.T, seed int64, slots uint8, counts, memo bool) {
		rng := rand.New(rand.NewSource(seed))
		base := randomPruneInstance(rng, 1+int(slots%40), counts)
		// The stream: every slot of base, some of them twice in a row.
		var src []int // the base slot each pushed slot copies
		for t := 0; t < base.T(); t++ {
			src = append(src, t)
			if rng.Intn(2) == 0 {
				src = append(src, t)
			}
		}
		ins := &model.Instance{Types: base.Types}
		for _, s := range src {
			ins.Lambda = append(ins.Lambda, base.Lambda[s])
			if counts {
				ins.Counts = append(ins.Counts, base.Counts[s])
			}
		}
		swapGcache(t, gcacheShards, gcacheMaxFloats)
		restore := SetMemo(memo)
		l, err := NewLayer(ins.Types)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		eval := model.NewEvaluator(ins)
		x := make(model.Config, ins.D())
		keyed := true // every cost family has a memo fingerprint
		for _, st := range ins.Types {
			h := newKeyHash()
			keyed = keyed && fnFingerprint(&h, st.Cost.At(1))
		}
		for ts := 1; ts <= ins.T(); ts++ {
			if ts%5 == 1 {
				refuseInfeasible(t, l, ins)
			}
			solved := l.le.solved
			gl, g, err := l.Push(ins.Slot(ts))
			if err != nil {
				t.Fatalf("slot %d: %v", ts, err)
			}
			if len(gl) != g.Size() {
				t.Fatalf("slot %d: %d cells on a %d-cell lattice", ts, len(gl), g.Size())
			}
			for j := range x {
				if m := ins.CountAt(ts, j); len(g.Axis(j)) != m+1 {
					t.Fatalf("slot %d: type %d's axis has %d levels, want 0..%d", ts, j, len(g.Axis(j)), m)
				}
			}
			for i, v := range gl {
				g.Decode(i, x)
				if want := eval.G(ts, x); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("slot %d cell %v: layer %v, evaluator %v", ts, x, v, want)
				}
			}
			repeat := ts > 1 && src[ts-1] == src[ts-2]
			if memo && keyed && repeat && l.le.solved != solved {
				t.Fatalf("slot %d repeats slot %d but solved %d cells", ts, ts-1, l.le.solved-solved)
			}
		}
	})
}

// refuseInfeasible pushes a slot whose demand exceeds the whole fleet's
// capacity and fails unless Push refuses it and leaves the front end
// unchanged: the slot count, the slot it evaluates, the lattice pair, its
// counts and the layer evaluator's work.
func refuseInfeasible(t *testing.T, l *Layer, ins *model.Instance) {
	t.Helper()
	capacity := 0.0
	for _, st := range ins.Types {
		capacity += float64(st.Count) * st.MaxLoad
	}
	n, prev, cur := l.fed, l.prevGrid, l.curGrid
	counts := slices.Clone(l.curCounts)
	slot := l.Slot()
	slot.Costs, slot.Counts = slices.Clone(slot.Costs), slices.Clone(slot.Counts)
	solved := l.le.solved
	if _, _, err := l.Push(model.SlotInput{Lambda: 2*capacity + 1}); err == nil {
		t.Fatal("Push accepted a slot no configuration can serve")
	}
	if l.fed != n || l.prevGrid != prev || l.curGrid != cur || !slices.Equal(l.curCounts, counts) ||
		!reflect.DeepEqual(l.cur, slot) || l.le.solved != solved {
		t.Fatal("a refused slot changed the front end")
	}
}
