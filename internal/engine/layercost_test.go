package engine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/stream"
)

// The hidden* wrappers keep a cost function's values and derivative
// interfaces but hide it from the layer memo's fingerprint: slots
// carrying them take the evaluator's unmemoised path, as the solver's
// memo-off test switch (solver.SetMemo) does.
type (
	hiddenFn   struct{ costfn.Func }
	hiddenDiff struct{ costfn.Differentiable }
	hiddenInv  struct{ costfn.Invertible }
)

func hide(f costfn.Func) costfn.Func {
	if inv, ok := costfn.AsInvertible(f); ok {
		return hiddenInv{inv}
	}
	if d, ok := costfn.AsDifferentiable(f); ok {
		return hiddenDiff{d}
	}
	return hiddenFn{f}
}

// hiddenProfile hides every function of a time-varying profile.
type hiddenProfile struct{ p model.CostProfile }

func (h hiddenProfile) At(t int) costfn.Func { return hide(h.p.At(t)) }

// unmemoised returns the fleet with every cost function hidden from the
// memo, keeping time-independent profiles time-independent.
func unmemoised(types []model.ServerType) []model.ServerType {
	out := append([]model.ServerType(nil), types...)
	for j, st := range out {
		if s, ok := st.Cost.(model.Static); ok {
			out[j].Cost = model.Static{F: hide(s.F)}
		} else {
			out[j].Cost = hiddenProfile{st.Cost}
		}
	}
	return out
}

// checkOperating feeds ins's demand and counts to sess and checks every
// advisory's operating cost bit for bit against solving the decided
// configuration's dispatch program for its slot, whose cost functions
// the session resolved from types' profiles. after, when non-nil, runs
// after each decided push.
func checkOperating(t *testing.T, sess *stream.Session, ins *model.Instance, types []model.ServerType, after func(adv stream.Advisory)) {
	t.Helper()
	eval := model.NewEvaluator(&model.Instance{Types: types})
	check := func(adv stream.Advisory) {
		t.Helper()
		s := adv.Slot
		in := feedInput(ins, s)
		in.T, in.Costs, in.Counts = s, make([]costfn.Func, len(types)), make([]int, len(types))
		for j, st := range types {
			in.Costs[j] = st.Cost.At(s)
			in.Counts[j] = ins.CountAt(s, j)
		}
		eval.Prepare(in)
		if want := eval.GPrepared(adv.Config); math.Float64bits(adv.Operating) != math.Float64bits(want) {
			t.Fatalf("slot %d config %v: operating %v, dispatch solve %v", s, adv.Config, adv.Operating, want)
		}
	}
	var adv stream.Advisory
	for s := 1; s <= ins.T(); s++ {
		decided, err := sess.Push(feedInput(ins, s), &adv)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if decided {
			check(adv)
			if after != nil {
				after(adv)
			}
		}
	}
	advs, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range advs {
		check(a)
	}
}

// A session reads each decided slot's operating cost from the DP layer a
// tracker already evaluated for it instead of solving its dispatch
// program again; the value must be the solve's, bit for bit. Covered for
// every scenario and every streamable algorithm — Algorithms A and B
// and LCP through their own trackers, the others through the session's
// telemetry tracker — and for A and B also without the layer memo.
// Algorithm C's sub-slot costs, read from its inner B's layers, are
// checked the same way by core's TestSubSlotCostFromLayerMatchesSolve.
func TestOperatingFromLayerMatchesSolve(t *testing.T) {
	const seed = 4
	for _, sc := range Scenarios() {
		for _, spec := range Algorithms() {
			if !spec.Streamable() {
				continue
			}
			for _, memo := range []bool{true, false} {
				if !memo && spec.Key != "alg-a" && spec.Key != "alg-b" {
					continue
				}
				name := sc.Name + "/" + spec.Key + "/memo"
				if !memo {
					name += "-off"
				}
				t.Run(name, func(t *testing.T) {
					ins := sc.Instance(seed)
					if spec.Skip != nil && spec.Skip(ins) != "" {
						t.Skipf("inapplicable: %s", spec.Skip(ins))
					}
					types := ins.Types
					if !memo {
						types = unmemoised(types)
					}
					alg, err := spec.New(types)
					if err != nil {
						t.Fatal(err)
					}
					sess, err := stream.New(alg, types, stream.Options{})
					if err != nil {
						t.Fatal(err)
					}
					// An exact tracker's lattice holds every feasible
					// configuration, so it must answer each one itself.
					var after func(stream.Advisory)
					if tr, ok := alg.(core.Tracked); ok {
						after = func(adv stream.Advisory) {
							if _, ok := tr.Tracker().G(adv.Config); !ok {
								t.Fatalf("slot %d: the tracker declined %v", adv.Slot, adv.Config)
							}
						}
					}
					checkOperating(t, sess, ins, types, after)
				})
			}
		}
	}
}

// An exact Algorithm B tracker answers every decided configuration from
// its layer, while a reduced-lattice (γ > 1) one declines those off its
// lattice and the session falls back to the solve — still bit for bit,
// with and without a session telemetry tracker.
func TestOperatingFromReducedLatticeFallsBack(t *testing.T) {
	const seed = 4
	fallbacks := 0
	for _, sc := range Scenarios() {
		for _, gamma := range []float64{0, 2} {
			for _, disableOpt := range []bool{false, true} {
				ins := sc.Instance(seed)
				alg, err := core.NewAlgorithmBWithOptions(ins.Types, core.Options{TrackerGamma: gamma})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := stream.New(alg, ins.Types, stream.Options{DisableOpt: disableOpt})
				if err != nil {
					t.Fatal(err)
				}
				checkOperating(t, sess, ins, ins.Types, func(adv stream.Advisory) {
					if _, ok := alg.Tracker().G(adv.Config); !ok {
						if gamma <= 1 {
							t.Fatalf("%s slot %d: the exact tracker declined %v", sc.Name, adv.Slot, adv.Config)
						}
						fallbacks++
					}
				})
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no decided configuration fell off a reduced lattice; the fallback went untested")
	}
}
