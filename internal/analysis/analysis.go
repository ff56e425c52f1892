// Package analysis computes the quantities the paper's proofs manipulate,
// so the lemmas behind Theorem 8 can be verified empirically rather than
// only trusted:
//
//   - the load-dependent operating cost L_{t,j}(X) of Equation (3),
//     splitting each slot's operating cost into an idle part x·f(0) and a
//     load part x·(f(λz/x) − f(0));
//   - the block costs H_{j,i} = β_j + t̄_j·f_j(0) of Equation (4), which
//     upper-bound Algorithm A's switching-plus-idle spending per block.
//
// Lemma 5 states Σ_{t,j} L_{t,j}(X^A) <= C(OPT); Lemma 7 states
// Σ_i H_{j,i} <= 2·C(OPT) per type; Theorem 8 assembles them into
// C(X^A) <= (2d+1)·C(OPT). Experiment E12 measures every line.
package analysis

import (
	"fmt"

	"repro/internal/model"
)

// Parts decomposes a schedule's total cost.
type Parts struct {
	// LoadDependent is Σ_t Σ_j L_{t,j}(X) per Equation (3).
	LoadDependent float64
	// Idle is Σ_t Σ_j x_{t,j}·f_{t,j}(0).
	Idle float64
	// Switching is the power-up cost Σ_t Σ_j β_j(Δ_j)^+.
	Switching float64
}

// Total returns the full schedule cost; by construction it equals
// model.Evaluator.Cost up to dispatch tolerance.
func (p Parts) Total() float64 { return p.LoadDependent + p.Idle + p.Switching }

// Decompose splits a feasible schedule's cost. The load split z_{t,j}
// behind L is the optimal dispatch of each slot (the same argmin the cost
// semantics use).
func Decompose(ins *model.Instance, sched model.Schedule) (Parts, error) {
	if err := ins.Feasible(sched); err != nil {
		return Parts{}, fmt.Errorf("analysis: %w", err)
	}
	eval := model.NewEvaluator(ins)
	var p Parts
	prev := make(model.Config, ins.D())
	for t := 1; t <= ins.T(); t++ {
		x := sched[t-1]
		op := eval.G(t, x)
		idle := 0.0
		for j := range ins.Types {
			idle += float64(x[j]) * ins.Types[j].Cost.At(t).Value(0)
		}
		p.Idle += idle
		p.LoadDependent += op - idle
		p.Switching += ins.SwitchCost(prev, x)
		prev = x
	}
	return p, nil
}

// LoadDependentPerSlot returns L_{t,j}(X) for one slot and type: the
// operating cost of type j's servers above their idle floor under the
// slot's optimal dispatch.
func LoadDependentPerSlot(ins *model.Instance, t int, x model.Config) []float64 {
	eval := model.NewEvaluator(ins)
	split := eval.Split(t, x)
	return LoadDependentWithVolumes(ins, t, x, split.Y)
}

// LoadDependentWithVolumes returns L_{t,j} for configuration x when type j
// carries job volume y[j] — the load split held fixed externally.
//
// This is the form Lemma 4 actually compares: the paper's z_{t,j} is one
// common split shared by x^A and x̂^t (the proof spreads the same per-type
// volume over more servers, which Jensen makes cheaper). With each
// configuration's own optimal split the per-type inequality can fail —
// x̂'s dispatch may route type j more volume than x^A's does — a subtlety
// our empirical Lemma-4 check exposed and this API encodes.
func LoadDependentWithVolumes(ins *model.Instance, t int, x model.Config, y []float64) []float64 {
	out := make([]float64, ins.D())
	for j := range ins.Types {
		if x[j] == 0 {
			continue
		}
		f := ins.Types[j].Cost.At(t)
		load := y[j] / float64(x[j])
		out[j] = float64(x[j]) * (f.Value(load) - f.Value(0))
	}
	return out
}

// PowerUpsA recovers the w_{t,j} of Algorithm 1, the servers Algorithm
// A powers up at each slot, from its schedule: each runs exactly t̄_j
// slots, so w_t = x_t − x_{t−1} + w_{t−t̄}. This is exact on the static
// fleets Section 2 covers; a time-varying fleet, where a clamp powers
// servers down early, is refused, as is a schedule needing a negative w.
func PowerUpsA(ins *model.Instance, sched model.Schedule, tbars []int) ([][]int, error) {
	if len(sched) != ins.T() || len(tbars) != ins.D() || ins.TimeVarying() {
		return nil, fmt.Errorf("analysis: need a static fleet, a %d-slot schedule and %d timeouts", ins.T(), ins.D())
	}
	w := make([][]int, ins.D())
	for j := range w {
		w[j] = make([]int, ins.T())
		prev := 0
		for t, x := range sched {
			k := x[j] - prev
			if t >= tbars[j] {
				k += w[j][t-tbars[j]]
			}
			if k < 0 {
				return nil, fmt.Errorf("analysis: slot %d of type %d is no Algorithm A step with t̄ = %d", t+1, j, tbars[j])
			}
			w[j][t], prev = k, x[j]
		}
	}
	return w, nil
}

// BlockCostsA computes the H_{j,i} of Equation (4) for the Algorithm A
// run with timeouts tbars that produced sched: one block per powered-up
// server (PowerUpsA), each costing β_j + t̄_j·f_j(0). Types that never
// power down (zero idle cost, t̄ effectively infinite) account the
// actual remaining horizon instead of t̄.
func BlockCostsA(ins *model.Instance, sched model.Schedule, tbars []int) ([]float64, error) {
	w, err := PowerUpsA(ins, sched, tbars)
	if err != nil {
		return nil, err
	}
	out := make([]float64, ins.D())
	for j, st := range ins.Types {
		idle := st.Cost.At(1).Value(0)
		for s, k := range w[j] {
			span := min(tbars[j], ins.T()-s) // infinite-timeout servers run to the horizon
			out[j] += float64(k) * (st.SwitchCost + float64(span)*idle)
		}
	}
	return out, nil
}
