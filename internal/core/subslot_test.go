package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/engine"
	"repro/internal/model"
)

// Algorithm C picks each slot's configuration by the sub-slot operating
// costs g̃_u(x^B_u), which it reads from the layer its inner Algorithm
// B's tracker evaluated for the sub-slot. On every scenario C applies
// to, a reference C — a twin Algorithm B over the same sub-slots, each
// g̃_u solved as a dispatch program — must find each layer value equal
// to the solve, bit for bit, and pick the same configurations.
func TestSubSlotCostFromLayerMatchesSolve(t *testing.T) {
	const seed = 4
	spec, _ := engine.LookupAlgorithm("alg-c")
	for _, sc := range engine.Scenarios() {
		ins := sc.Instance(seed)
		if why := spec.Skip(ins); why != "" {
			continue
		}
		for _, eps := range []float64{1, 0.25} {
			alg, err := core.NewAlgorithmC(ins.Types, eps)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := core.NewAlgorithmB(ins.Types)
			if err != nil {
				t.Fatal(err)
			}
			eval := model.NewEvaluator(&model.Instance{Types: ins.Types})
			d := float64(ins.D())
			var in model.SlotInput
			costs := make([]costfn.Func, ins.D())
			best := make(model.Config, ins.D())
			u := 0
			for s := 1; s <= ins.T(); s++ {
				ins.SlotInto(s, &in)
				ratio := 0.0
				for j, st := range ins.Types {
					ratio = math.Max(ratio, in.Costs[j].Value(0)/st.SwitchCost)
				}
				n := max(int(math.Ceil(d/eps*ratio)), 1)
				for j := range costs {
					costs[j] = costfn.Scaled{F: in.Costs[j], Factor: 1 / float64(n)}
				}
				bestVal := math.Inf(1)
				for k := 0; k < n; k++ {
					u++
					sub := model.SlotInput{T: u, Lambda: in.Lambda, Costs: costs, Counts: in.Counts}
					x := twin.Step(sub)
					g, ok := twin.Tracker().G(x)
					eval.Prepare(sub)
					want := eval.GPrepared(x)
					if !ok || math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%s eps %g sub-slot %d config %v: layer (%v, %v), dispatch solve %v", sc.Name, eps, u, x, g, ok, want)
					}
					if want < bestVal {
						bestVal = want
						copy(best, x)
					}
				}
				if got := alg.Step(in); !got.Equal(best) {
					t.Fatalf("%s eps %g slot %d: Algorithm C picked %v, the solved sub-slot costs %v", sc.Name, eps, s, got, best)
				}
			}
		}
	}
}
