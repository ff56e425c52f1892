package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/stream"
)

// varyingInstance is a d-type instance whose every type carries a
// model.Varying profile, one cost function per slot, and, for d > 1,
// time-varying counts: a fleet on which a cost resolved at the wrong slot
// index changes decisions or panics.
func varyingInstance(d int) *model.Instance {
	const T = 40
	counts, loads := []int{6, 3, 2}, []float64{1, 3, 2}
	ins := &model.Instance{Lambda: make([]float64, T)}
	for j := 0; j < d; j++ {
		fs := make([]costfn.Func, T)
		for s := range fs {
			fs[s] = costfn.Affine{Idle: 0.5 + float64((s*(j+3))%7)/4, Rate: 0.3 + float64((s+j)%5)/10}
		}
		ins.Types = append(ins.Types, model.ServerType{
			Name: fmt.Sprint("t", j), Count: counts[j], SwitchCost: 3 + 2*float64(j), MaxLoad: loads[j],
			Cost: model.Varying{Fs: fs},
		})
	}
	capacity := 0.0
	for _, st := range ins.Types {
		capacity += float64(st.Count-1) * st.MaxLoad
	}
	for s := range ins.Lambda {
		ins.Lambda[s] = capacity * float64((s*7)%11) / 11
	}
	if d > 1 {
		ins.Counts = make([][]int, T)
		for s := range ins.Counts {
			ins.Counts[s] = make([]int, d)
			for j, st := range ins.Types {
				ins.Counts[s][j] = st.Count - (s/5+j)%2
			}
		}
	}
	return ins
}

// T = 0 means "the next slot" to every consumer: each streamable
// algorithm, stepped directly with slots that carry no index and no cost
// functions, resolves the template's profiles at its own slot index and
// decides exactly what core.Run decides from the fully indexed slots.
func TestZeroSlotIndexMatchesRun(t *testing.T) {
	for _, ins := range []*model.Instance{varyingInstance(2), varyingInstance(1)} {
		if err := ins.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, spec := range Algorithms() {
			if !spec.Streamable() || spec.Skip != nil && spec.Skip(ins) != "" {
				continue
			}
			t.Run(fmt.Sprintf("d%d/%s", ins.D(), spec.Key), func(t *testing.T) {
				want, err := spec.Run(ins)
				if err != nil {
					t.Fatal(err)
				}
				got, err := stepUnindexed(spec, ins)
				if err != nil {
					t.Fatal(err)
				}
				checkSchedules(t, "T = 0", want, got)
			})
		}
	}
}

// stepUnindexed drives a fresh algorithm over ins with T = 0 slots that
// carry only their demand and counts, converting a panic into an error.
func stepUnindexed(spec AlgSpec, ins *model.Instance) (out []model.Config, err error) {
	alg, err := spec.New(ins.Types)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked on a T = 0 slot: %v", spec.Key, r)
		}
	}()
	for s := 1; s <= ins.T(); s++ {
		if x := alg.Step(feedInput(ins, s)); x != nil {
			out = append(out, x.Clone())
		}
	}
	if b, ok := alg.(core.Buffered); ok {
		out = append(out, b.Flush()...)
	}
	return out, nil
}

// modulatedPushAllocs pins, per streamable registry entry, the objects
// one steady-state push allocates on a price-modulated fleet, as
// measured when the session began resolving each slot once: the session
// boxes each type's Modulated.At once a push, and nothing it hands on
// boxes it again. Algorithm C also boxes its sub-slot costs; receding
// horizon copies each slot into its window.
var modulatedPushAllocs = map[string]float64{
	"alg-b":            2,
	"alg-c":            4,
	"all-on":           2,
	"load-tracking":    2,
	"ski-rental":       2,
	"receding-horizon": 7,
}

// A session on a price-modulated fleet allocates no more per
// steady-state push than modulatedPushAllocs records.
func TestModulatedPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const period, warm, runs = 24, 4 * 24, 100
	price := hourlyPrice(warm + runs + 8)
	types := []model.ServerType{
		{Name: "standard", Count: 10, SwitchCost: 4, MaxLoad: 1,
			Cost: model.Modulated{F: costfn.Affine{Idle: 1, Rate: 0.8}, Scale: price}},
		{Name: "highmem", Count: 4, SwitchCost: 10, MaxLoad: 3,
			Cost: model.Modulated{F: costfn.Affine{Idle: 2.5, Rate: 0.4}, Scale: price}},
	}
	ins := &model.Instance{Types: types, Lambda: make([]float64, 1)}
	for _, spec := range Algorithms() {
		if !spec.Streamable() || spec.Skip != nil && spec.Skip(ins) != "" {
			continue
		}
		t.Run(spec.Key, func(t *testing.T) {
			want, ok := modulatedPushAllocs[spec.Key]
			if !ok {
				t.Fatalf("no recorded allocation count for %s", spec.Key)
			}
			sess, err := OpenSession(spec.Key, types, stream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var adv stream.Advisory
			push := func() {
				lambda := 2 + float64((sess.Fed()%period)*7%period)/2
				if _, err := sess.Push(model.SlotInput{Lambda: lambda}, &adv); err != nil {
					t.Fatal(err)
				}
			}
			for range warm {
				push()
			}
			got := testing.AllocsPerRun(runs, push)
			t.Logf("%s: %v allocations a push", spec.Key, got)
			if got > want {
				t.Errorf("%s allocates %v a steady-state push, want <= %v", spec.Key, got, want)
			}
		})
	}
}
