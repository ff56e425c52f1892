package dispatch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
)

// diffOnly hides a Power function's InvDeriv so the solver exercises the
// derivative-bisection path (Differentiable but not Invertible).
type diffOnly struct{ p costfn.Power }

func (d diffOnly) Value(z float64) float64 { return d.p.Value(z) }
func (d diffOnly) Deriv(z float64) float64 { return d.p.Deriv(z) }

// opaqueOnly hides everything but Value, forcing the golden-section
// Lagrangian fallback. Its totals are noisy, so the solver must ignore
// warm hints entirely for these solves — which this test suite checks by
// demanding bit-equality all the same.
type opaqueOnly struct{ p costfn.Power }

func (o opaqueOnly) Value(z float64) float64 { return o.p.Value(z) }

// randomFunc draws a cost function; all families must satisfy the
// bit-for-bit warm-start guarantee (monotone families via the canonical
// snap, opaque ones via the hint-free reference bisection).
func randomFunc(rng *rand.Rand) costfn.Func {
	switch rng.Intn(11) {
	case 0:
		return costfn.Constant{C: 5 * rng.Float64()}
	case 1:
		return costfn.Affine{Idle: 3 * rng.Float64(), Rate: 4 * rng.Float64()}
	case 2:
		return costfn.Power{Idle: rng.Float64(), Coef: 0.2 + 2*rng.Float64(), Exp: 1 + 2.5*rng.Float64()}
	case 3:
		return costfn.Exponential{Idle: rng.Float64(), Amp: 0.2 + rng.Float64(), Rate: 0.3 + rng.Float64()}
	case 4:
		return costfn.Scaled{
			F:      costfn.Power{Idle: rng.Float64(), Coef: 0.5 + rng.Float64(), Exp: 2},
			Factor: 0.3 + 2*rng.Float64(),
		}
	case 5:
		return opaqueOnly{p: costfn.Power{Idle: rng.Float64(), Coef: 0.3 + rng.Float64(), Exp: 1.5 + rng.Float64()}}
	case 6:
		// Exp 1 is linear: its volume jumps from 0 to capacity at ν = Coef.
		return costfn.Power{Idle: rng.Float64(), Coef: 0.2 + 2*rng.Float64(), Exp: 1}
	case 7:
		return randomPiecewise(rng)
	case 8:
		// The quadratic the solver's type table calls directly.
		return costfn.Power{Idle: rng.Float64(), Coef: 0.2 + 2*rng.Float64(), Exp: 2}
	case 9:
		return costfn.Scaled{
			F:      costfn.Power{Idle: rng.Float64(), Coef: 0.2 + 2*rng.Float64(), Exp: 1},
			Factor: 0.3 + 2*rng.Float64(),
		}
	default:
		return diffOnly{p: costfn.Power{Idle: rng.Float64(), Coef: 0.3 + rng.Float64(), Exp: 1.5 + rng.Float64()}}
	}
}

// randomPiecewise draws a convex increasing piecewise-linear cost with 1–4
// breakpoints; its volume is a staircase that jumps at every slope.
func randomPiecewise(rng *rand.Rand) costfn.PiecewiseLinear {
	n := 1 + rng.Intn(4)
	zs, vs := make([]float64, n), make([]float64, n)
	vs[0] = 2 * rng.Float64()
	slope := 0.0
	for i := 1; i < n; i++ {
		zs[i] = zs[i-1] + 0.1 + rng.Float64()
		slope += 1.5 * rng.Float64()
		vs[i] = vs[i-1] + slope*(zs[i]-zs[i-1])
	}
	return costfn.MustPiecewiseLinear(zs, vs)
}

// The tentpole's central contract: a Solver that warm-starts every solve
// from the previous one returns bit-for-bit the same costs and volumes as
// a cold Solver created per call, across random fleets, lattice-line
// walks and demand sweeps.
func TestWarmStartMatchesColdBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		d := 1 + rng.Intn(4)
		servers := make([]Server, d)
		for j := range servers {
			servers[j] = Server{
				Active: rng.Intn(8),
				Cap:    0.25 + 4*rng.Float64(),
				F:      randomFunc(rng),
			}
		}
		var warmSolver Solver
		var warmAssign, coldAssign Assignment
		lambda := 0.0
		for step := 0; step < 40; step++ {
			// Mutate like a DP sweep: mostly walk one type's count up or
			// down a lattice line, sometimes jump the demand.
			switch rng.Intn(4) {
			case 0:
				lambda = rng.Float64() * 12
			default:
				j := rng.Intn(d)
				servers[j].Active += rng.Intn(3) - 1
				if servers[j].Active < 0 {
					servers[j].Active = 0
				}
			}
			var coldSolver Solver
			cw := warmSolver.Cost(servers, lambda)
			cc := coldSolver.Cost(servers, lambda)
			if math.Float64bits(cw) != math.Float64bits(cc) {
				t.Fatalf("trial %d step %d: warm cost %v != cold cost %v (λ=%g, servers=%+v, warm=%+v)",
					trial, step, cw, cc, lambda, servers, warmSolver.Warm())
			}
			warmSolver.AssignInto(servers, lambda, &warmAssign)
			var freshSolver Solver
			freshSolver.AssignInto(servers, lambda, &coldAssign)
			for j := range warmAssign.Y {
				if math.Float64bits(warmAssign.Y[j]) != math.Float64bits(coldAssign.Y[j]) {
					t.Fatalf("trial %d step %d: warm volume Y[%d]=%v != cold %v",
						trial, step, j, warmAssign.Y[j], coldAssign.Y[j])
				}
			}
		}
	}
}

// Seeding a solver with an arbitrary (even absurd) warm hint must not
// change results either — hints steer the search, never the answer.
func TestSetWarmHintIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	servers := []Server{
		{Active: 5, Cap: 1.5, F: costfn.Power{Idle: 1, Coef: 0.6, Exp: 2}},
		{Active: 3, Cap: 4, F: costfn.Affine{Idle: 2, Rate: 0.4}},
		{Active: 2, Cap: 2, F: costfn.Exponential{Idle: 0.5, Amp: 0.7, Rate: 0.8}},
	}
	for i := 0; i < 200; i++ {
		lambda := rng.Float64() * 18
		var cold Solver
		want := cold.Cost(servers, lambda)
		var hinted Solver
		hinted.SetWarm(Warm{Hi: math.Ldexp(1, rng.Intn(20)), Nu: rng.Float64() * 1000})
		if got := hinted.Cost(servers, lambda); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hinted cost %v != cold %v (λ=%g)", got, want, lambda)
		}
		hinted.ResetWarm()
		if w := hinted.Warm(); w != (Warm{}) {
			t.Fatalf("ResetWarm left %+v", w)
		}
	}
}

// AssignInto must agree with Assign and reuse its buffers.
func TestAssignIntoReusesBuffers(t *testing.T) {
	servers := []Server{
		{Active: 3, Cap: 1, F: costfn.Affine{Idle: 1, Rate: 1}},
		{Active: 2, Cap: 2, F: costfn.Power{Idle: 0.5, Coef: 0.3, Exp: 2}},
	}
	var sv Solver
	var res Assignment
	sv.AssignInto(servers, 3.5, &res)
	want := Assign(servers, 3.5)
	if math.Float64bits(res.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("AssignInto cost %v != Assign %v", res.Cost, want.Cost)
	}
	y0, z0 := &res.Y[0], &res.Z[0]
	sv.AssignInto(servers, 4.25, &res)
	if &res.Y[0] != y0 || &res.Z[0] != z0 {
		t.Error("AssignInto reallocated its buffers on the second call")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		sv.AssignInto(servers, 4.25, &res)
	}); allocs != 0 {
		t.Errorf("AssignInto allocates %v/op, want 0", allocs)
	}
}

// FuzzWarmCold fuzzes the bit-for-bit contract over arbitrary parameter
// soup across every cost-function family, opaque ones included.
func FuzzWarmCold(f *testing.F) {
	f.Add(int64(1), 3.0, 7.0)
	f.Add(int64(99), 0.0, 0.5)
	f.Add(int64(7), 12.0, 11.5)
	f.Fuzz(func(t *testing.T, seed int64, l1, l2 float64) {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		servers := make([]Server, d)
		for j := range servers {
			servers[j] = Server{Active: rng.Intn(6), Cap: 0.2 + 3*rng.Float64(), F: randomFunc(rng)}
		}
		var warm Solver
		for _, lambda := range []float64{l1, l2, l1} {
			lambda = sanitize(lambda, 0, 40)
			var cold Solver
			cw := warm.Cost(servers, lambda)
			cc := cold.Cost(servers, lambda)
			if math.Float64bits(cw) != math.Float64bits(cc) {
				t.Fatalf("warm %v != cold %v (λ=%g, servers=%+v)", cw, cc, lambda, servers)
			}
		}
	})
}
