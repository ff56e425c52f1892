package dispatch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
)

// monotoneFunc draws from randomFunc's families minus the opaque one, whose
// golden-section totals are not monotone and so have no fast path.
func monotoneFunc(rng *rand.Rand) costfn.Func {
	for {
		f := randomFunc(rng)
		if _, ok := costfn.AsDifferentiable(f); ok {
			return f
		}
	}
}

// referenceDual is the canonical dual by its definition: 0 when the idle
// volume already meets lambda, hi when the bracket top does not exceed it,
// otherwise the final midpoint of the 47-halving bisection of [0, hi].
func referenceDual(sv *Solver, hi, lambda float64) float64 {
	if sv.total(0) >= lambda {
		return 0
	}
	if sv.total(hi) <= lambda {
		return hi
	}
	return sv.dualBisect(hi, lambda)
}

// The fast dual search is free to probe wherever it likes, but its answer
// is defined by the reference bisection: on every monotone family, warm or
// cold, solveDual must return that bisection's ν* bit for bit, on the
// smallest power-of-two bracket that absorbs lambda.
func TestFastDualMatchesReferenceBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	solves := 0
	for trial := 0; trial < 300; trial++ {
		d := 2 + rng.Intn(4)
		servers := make([]Server, d)
		for j := range servers {
			servers[j] = Server{Active: 1 + rng.Intn(8), Cap: 0.25 + 4*rng.Float64(), F: monotoneFunc(rng)}
		}
		var warm Solver
		for step := 0; step < 40; step++ {
			if step > 0 {
				j := rng.Intn(d)
				servers[j].Active = max(1, servers[j].Active+rng.Intn(3)-1)
			}
			totalCap := 0.0
			for _, s := range servers {
				totalCap += float64(s.Active) * s.Cap
			}
			lambda := totalCap * rng.Float64()
			var cold Solver
			for _, sv := range []*Solver{&warm, &cold} {
				sv.active = sv.active[:0]
				for j := range servers {
					sv.active = append(sv.active, j)
				}
				sv.resolvePlans(servers)
				nu := sv.solveDual(lambda)
				hi := sv.warm.Hi
				if nu > 0 && hi > 1 && sv.total(hi/2) >= lambda {
					t.Fatalf("trial %d step %d: bracket %g is not the smallest (λ=%g)", trial, step, hi, lambda)
				}
				if want := referenceDual(sv, hi, lambda); math.Float64bits(nu) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d (warm=%v): ν* %v != reference %v (λ=%g, hi=%g, servers=%+v)",
						trial, step, sv == &warm, nu, want, lambda, hi, servers)
				}
				solves++
			}
		}
	}
	t.Logf("%d dual solves matched the reference", solves)
}

// The dual search's work, counted rather than timed so the gate does not
// depend on host speed: one Solver sweeps the `heterogeneous` scenario's
// 11×7×4 lattice in the DP's grid order (last type fastest) for 200 seeded
// demands, and must average at most 6 volume sums per lattice cell.
// Trivial cells (λ = 0, infeasible, one active type) count as cells with
// no sums.
func TestDualSearchWork(t *testing.T) {
	servers := []Server{
		{Cap: 1, F: costfn.Constant{C: 1.2}},
		{Cap: 2, F: costfn.Affine{Idle: 1.5, Rate: 0.6}},
		{Cap: 4, F: costfn.Power{Idle: 2.5, Coef: 0.3, Exp: 2}},
	}
	counts := []int{10, 6, 3}
	rng := rand.New(rand.NewSource(5))
	var sv Solver
	cells := 0
	for n := 0; n < 200; n++ {
		lambda := 30 * rng.Float64()
		for x0 := 0; x0 <= counts[0]; x0++ {
			for x1 := 0; x1 <= counts[1]; x1++ {
				for x2 := 0; x2 <= counts[2]; x2++ {
					servers[0].Active, servers[1].Active, servers[2].Active = x0, x1, x2
					sv.Cost(servers, lambda)
					cells++
				}
			}
		}
	}
	perCell := float64(sv.evals) / float64(cells)
	t.Logf("%d volume sums over %d cells: %.2f per cell", sv.evals, cells, perCell)
	if perCell > 6 {
		t.Errorf("dual search averages %.2f volume sums per cell, want <= 6", perCell)
	}
}

// A saturation multiplier within an ulp of a dyadic cell edge or of the
// previous solve's ν* leaves the bracket far narrower than a cell once the
// breakpoint search and the edge probe have run, cold or warm. The search
// must accept such a bracket and still return the reference's ν*.
func TestFastDualSaturationNearCellEdge(t *testing.T) {
	h := math.Ldexp(1, -dualBits) // cell width at hi = 1
	for _, edge := range []float64{3.0 / 128, 0.5, 12345678901 * h, 3 * math.Ldexp(1, -40)} {
		for _, sigma := range []float64{
			math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1),
			math.Nextafter(edge+h/2, 0), edge + h/2, math.Nextafter(edge+h/2, 1),
		} {
			servers := []Server{
				{Active: 1, Cap: 1, F: costfn.Affine{Rate: sigma}},
				{Active: 1, Cap: 16, F: costfn.Power{Coef: 1, Exp: 2}},
			}
			for _, lambda := range []float64{sigma / 2, 0.5, 1 + sigma/2, 1.2, 5} {
				// Cold, then warm from the midpoint of σ's cell and from the
				// cell edge below it.
				mid := (math.Floor(sigma/h) + 0.5) * h
				for _, hint := range []Warm{{}, {Hi: 1, Nu: mid}, {Hi: 1, Nu: math.Floor(sigma/h) * h}} {
					var sv Solver
					sv.SetWarm(hint)
					sv.active = append(sv.active[:0], 0, 1)
					sv.resolvePlans(servers)
					nu := sv.solveDual(lambda)
					if want := referenceDual(&sv, sv.warm.Hi, lambda); math.Float64bits(nu) != math.Float64bits(want) {
						t.Errorf("σ=%v λ=%v hint=%+v: ν* %v != reference %v", sigma, lambda, hint, nu, want)
					}
				}
			}
		}
	}
}

// Dual reports the last solve's canonical ν*: NaN when that solve ran no
// dual search (no solve yet, λ = 0, an infeasible cell, one active type),
// also right after a solve that did run one, and otherwise bit for bit
// the ν* a cold solver reports for the same cell, whatever the warm
// solver solved before it.
func TestDualIsCanonicalOrNaN(t *testing.T) {
	var fresh Solver
	if nu := fresh.Dual(); !math.IsNaN(nu) {
		t.Fatalf("Dual before any solve = %v, want NaN", nu)
	}
	rng := rand.New(rand.NewSource(23))
	var warm Solver
	duals := 0
	for trial := 0; trial < 400; trial++ {
		d := 2 + rng.Intn(3)
		servers := make([]Server, d)
		totalCap := 0.0
		for j := range servers {
			servers[j] = Server{Active: 1 + rng.Intn(6), Cap: 0.25 + 3*rng.Float64(), F: monotoneFunc(rng)}
			totalCap += float64(servers[j].Active) * servers[j].Cap
		}
		// A cell with a dual: the warm solver's history is every trial
		// before this one.
		lambda := totalCap * (0.05 + 0.9*rng.Float64())
		warm.Cost(servers, lambda)
		var cold Solver
		cold.Cost(servers, lambda)
		got, want := warm.Dual(), cold.Dual()
		if math.IsNaN(want) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: warm Dual %v, cold %v (λ=%g, servers %+v)", trial, got, want, lambda, servers)
		}
		duals++

		// Each solve that runs no dual search leaves NaN behind, not the
		// previous solve's ν*.
		single := append([]Server(nil), servers...)
		for j := 1; j < d; j++ {
			single[j].Active = 0
		}
		for _, c := range []struct {
			name    string
			servers []Server
			lambda  float64
		}{
			{"λ = 0", servers, 0},
			{"infeasible", servers, totalCap * 1.5},
			{"one active type", single, single[0].Cap * float64(single[0].Active) / 2},
		} {
			warm.Cost(servers, lambda)
			warm.Cost(c.servers, c.lambda)
			if nu := warm.Dual(); !math.IsNaN(nu) {
				t.Fatalf("trial %d, %s: Dual = %v, want NaN", trial, c.name, nu)
			}
		}
	}
	t.Logf("%d duals matched a cold solve", duals)
}
