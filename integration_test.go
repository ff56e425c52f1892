package rightsizing

import (
	"fmt"
	"math/rand"
	"testing"
)

// The integration matrix: every algorithm against every workload family on
// several cluster shapes. Each cell checks feasibility, the proven bound
// where one exists, and basic sanity (cost ordering against AllOn-style
// static provisioning is NOT asserted — baselines may win or lose).
func TestIntegrationMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))

	clusters := map[string]func(T int, peak float64) *Instance{
		"homogeneous": func(T int, peak float64) *Instance {
			return &Instance{
				Types: []ServerType{{
					Name: "srv", Count: int(peak) + 2, SwitchCost: 3, MaxLoad: 1,
					Cost: Static{F: Affine{Idle: 1, Rate: 1}},
				}},
				Lambda: nil, // filled by caller
			}
		},
		"cpu+gpu": func(T int, peak float64) *Instance {
			return &Instance{
				Types: []ServerType{
					{Name: "cpu", Count: int(peak*0.8) + 1, SwitchCost: 2, MaxLoad: 1,
						Cost: Static{F: Power{Idle: 1, Coef: 0.5, Exp: 2}}},
					{Name: "gpu", Count: int(peak/4*0.6) + 1, SwitchCost: 11, MaxLoad: 4,
						Cost: Static{F: Affine{Idle: 3, Rate: 0.4}}},
				},
			}
		},
		"three-tier": func(T int, peak float64) *Instance {
			return &Instance{
				Types: []ServerType{
					{Name: "small", Count: int(peak/2) + 1, SwitchCost: 1, MaxLoad: 0.5,
						Cost: Static{F: Constant{C: 0.6}}},
					{Name: "mid", Count: int(peak/2) + 1, SwitchCost: 3, MaxLoad: 1,
						Cost: Static{F: Affine{Idle: 1, Rate: 0.8}}},
					{Name: "big", Count: int(peak/8) + 1, SwitchCost: 9, MaxLoad: 4,
						Cost: Static{F: Power{Idle: 2.5, Coef: 0.2, Exp: 2}}},
				},
			}
		},
	}

	const T = 18
	const peak = 8.0
	workloads := map[string][]float64{
		"diurnal": Diurnal(T, 0.5, peak, T/2, 0),
		"bursty":  Bursty(rng, T, 1, peak, 0.2),
		"steps":   Steps(T, []float64{1, peak, 3}, 3),
		"onoff":   OnOff(T, peak, 0, 2, 3),
		"walk":    RandomWalk(rng, T, peak/2, peak/6, 0.2, peak),
	}

	for cname, mk := range clusters {
		for wname, lam := range workloads {
			t.Run(fmt.Sprintf("%s/%s", cname, wname), func(t *testing.T) {
				ins := mk(T, peak)
				ins.Lambda = lam
				if err := ins.Validate(); err != nil {
					t.Fatalf("instance invalid: %v", err)
				}
				opt, err := OptimalCost(ins)
				if err != nil {
					t.Fatal(err)
				}
				eval := NewEvaluator(ins)

				type entry struct {
					alg   Online
					bound float64 // 0 = no proven bound
				}
				var entries []entry
				a, err := NewAlgorithmA(ins.Types)
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, entry{a, RatioBoundA(ins)})
				b, err := NewAlgorithmB(ins.Types)
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, entry{b, RatioBoundB(ins)})
				c, err := NewAlgorithmC(ins.Types, 1)
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, entry{c, 2*float64(ins.D()) + 1 + 1})
				for _, mkb := range []func() (Online, error){
					func() (Online, error) { return NewAllOn(ins.Types) },
					func() (Online, error) { return NewLoadTracking(ins.Types) },
					func() (Online, error) { return NewSkiRental(ins.Types) },
					func() (Online, error) { return NewRandomizedTimeout(ins.Types, 5) },
					func() (Online, error) { return NewLookahead(ins.Types, 3) },
				} {
					alg, err := mkb()
					if err != nil {
						t.Fatal(err)
					}
					entries = append(entries, entry{alg, 0})
				}
				if ins.D() == 1 {
					l, err := NewLCP(ins.Types)
					if err != nil {
						t.Fatal(err)
					}
					entries = append(entries, entry{l, 3}) // discrete LCP bound
				}

				for _, e := range entries {
					sched := Run(e.alg, ins)
					if err := ins.Feasible(sched); err != nil {
						t.Errorf("%s: infeasible: %v", e.alg.Name(), err)
						continue
					}
					cost := eval.Cost(sched).Total()
					if cost < opt*(1-1e-9) {
						t.Errorf("%s: cost %g below optimum %g", e.alg.Name(), cost, opt)
					}
					if e.bound > 0 && cost > e.bound*opt*(1+1e-9) {
						t.Errorf("%s: cost %g violates bound %g·OPT (opt %g)",
							e.alg.Name(), cost, e.bound, opt)
					}
				}

				// Offline variants agree with each other.
				res, err := SolveOptimal(ins)
				if err != nil {
					t.Fatal(err)
				}
				if diff := res.Cost() - opt; diff > 1e-9*(1+opt) || diff < -1e-9*(1+opt) {
					t.Errorf("SolveOptimal %g vs OptimalCost %g", res.Cost(), opt)
				}
				par, err := Solve(ins, SolveOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if par.Cost() != res.Cost() {
					t.Errorf("2 workers %g vs serial %g", par.Cost(), res.Cost())
				}
				apx, err := SolveApprox(ins, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				if apx.Cost() > 1.5*opt*(1+1e-9) {
					t.Errorf("approx %g violates 1.5·OPT (%g)", apx.Cost(), opt)
				}
			})
		}
	}
}
