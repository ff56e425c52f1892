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
// demands, and must average at most 1.5 volume sums per lattice cell.
// Trivial cells (λ = 0, infeasible, one active type) count as cells with
// no sums.
func TestDualSearchWork(t *testing.T) {
	servers := heterogeneousServers()
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
	if perCell > 1.5 {
		t.Errorf("dual search averages %.2f volume sums per cell, want <= 1.5", perCell)
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

// heterogeneousServers is the `heterogeneous` scenario's fleet, one
// server type per cost family the solver writes out: Constant, Affine
// and a quadratic Power.
func heterogeneousServers() []Server {
	return []Server{
		{Cap: 1, F: costfn.Constant{C: 1.2}},
		{Cap: 2, F: costfn.Affine{Idle: 1.5, Rate: 0.6}},
		{Cap: 4, F: costfn.Power{Idle: 2.5, Coef: 0.3, Exp: 2}},
	}
}

// The prune pass of a memo-miss layer solves only the cells it cannot
// bound, so successive dual solves lie farther apart than on a dense
// walk and the warm start helps less. This counts the pruned walk's
// work: one Solver solves about one cell in five of the heterogeneous
// lattice, drawn at random but visited in the DP's grid order, for 200
// seeded demands, and must average at most 2.5 volume sums per dual
// solve. Cells that run no dual search are not counted.
func TestPrunedWalkDualWork(t *testing.T) {
	servers := heterogeneousServers()
	counts := []int{10, 6, 3}
	rng := rand.New(rand.NewSource(6))
	var sv Solver
	solves := 0
	for n := 0; n < 200; n++ {
		lambda := 30 * rng.Float64()
		for x0 := 0; x0 <= counts[0]; x0++ {
			for x1 := 0; x1 <= counts[1]; x1++ {
				for x2 := 0; x2 <= counts[2]; x2++ {
					if rng.Intn(5) != 0 {
						continue
					}
					servers[0].Active, servers[1].Active, servers[2].Active = x0, x1, x2
					evals := sv.evals
					sv.Cost(servers, lambda)
					if math.IsNaN(sv.Dual()) {
						sv.evals = evals // cells with no dual search do not count
						continue
					}
					solves++
				}
			}
		}
	}
	perSolve := float64(sv.evals) / float64(solves)
	t.Logf("%d volume sums over %d dual solves: %.2f per solve", sv.evals, solves, perSolve)
	if perSolve > 2.5 {
		t.Errorf("pruned walk averages %.2f volume sums per dual solve, want <= 2.5", perSolve)
	}
}

// canonicalHi is the reference bracket: the smallest power of two in
// [1, maxDualHi] whose absorbed volume reaches lambda.
func canonicalHi(sv *Solver, lambda float64) float64 {
	hi := 1.0
	for hi < maxDualHi && sv.total(hi) < lambda {
		hi *= 2
	}
	return hi
}

// checkPredicted solves the cell of the servers' active types at lambda
// twice, by predictDual alone and by a cold solveDual, and reports
// whether the prediction was taken. A taken prediction must return the
// reference ν* bit for bit and leave the smallest bracket as warm start;
// solveDual must return it either way.
func checkPredicted(t *testing.T, servers []Server, lambda float64) bool {
	t.Helper()
	var sv Solver
	for j, s := range servers {
		if s.Active > 0 {
			sv.active = append(sv.active, j)
		}
	}
	sv.resolvePlans(servers)
	hi := canonicalHi(&sv, lambda)
	want := referenceDual(&sv, hi, lambda)
	nu, fast := sv.predictDual(lambda)
	if fast {
		if math.Float64bits(nu) != math.Float64bits(want) {
			t.Fatalf("λ=%v servers %+v: predicted ν* %v != reference %v", lambda, servers, nu, want)
		}
		if sv.warm != (Warm{Hi: hi, Nu: nu}) {
			t.Fatalf("λ=%v servers %+v: predicted warm start %+v, want hi %v, ν* %v", lambda, servers, sv.warm, hi, nu)
		}
	}
	sv.warm = Warm{}
	if got := sv.solveDual(lambda); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("λ=%v servers %+v: solveDual ν* %v != reference %v", lambda, servers, got, want)
	}
	if want > 0 && sv.warm.Hi != hi {
		t.Fatalf("λ=%v servers %+v: bracket %v, want the smallest, %v", lambda, servers, sv.warm.Hi, hi)
	}
	return fast
}

// The predicted cell on hand-placed edge cases of step and quadratic
// fleets: step thresholds on, and one ulp either side of, dyadic cell
// edges and powers of two; demand equal to the stepped capacity at a
// jump and to the total at a power-of-two bracket (an exact hit, whose
// answer is the bracket itself); roots below 1; a quadratic that
// saturates below the root; Affine types with Rate ≤ 0. Whatever the
// prediction does, ν* must be the reference's.
func TestPredictedCellMatchesReference(t *testing.T) {
	quad := func(active int, zmax, coef float64) Server {
		return Server{Active: active, Cap: zmax, F: costfn.Power{Idle: 0.5, Coef: coef, Exp: 2}}
	}
	step := func(active int, zmax, rate float64) Server {
		return Server{Active: active, Cap: zmax, F: costfn.Affine{Idle: 1, Rate: rate}}
	}
	fast, cases := 0, 0
	check := func(servers []Server, lambdas ...float64) {
		for _, lambda := range lambdas {
			if checkPredicted(t, servers, lambda) {
				fast++
			}
			cases++
		}
	}

	// A step threshold at, and one ulp either side of, a dyadic cell
	// edge (at brackets 1 and 4) and a power of two, beside a quadratic
	// absorbing ν/2: crossings at the jump, just below and past it.
	h1 := math.Ldexp(1, -dualBits)
	for _, edge := range []float64{3.0 / 128, 12345678901 * h1, 0.5, 1, 2, 3, 4} {
		for _, sigma := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 8)} {
			servers := []Server{step(1, 1, sigma), quad(1, 64, 1)}
			check(servers, sigma/2+0.5, sigma/2+1, math.Nextafter(sigma/2, 0), sigma/2+1.25)
			// Steps only: the crossing is at a jump.
			check([]Server{step(2, 1, sigma), step(1, 3, 2*sigma)}, 1, 2.5, 4)
		}
	}

	// Demand equal to the stepped capacity at a jump: the total is flat
	// at lambda from the jump on.
	steps := []Server{step(3, 2, 0.3), step(4, 1, 0.7), step(1, 5, 3)}
	check(steps, 6, 10, 15, math.Nextafter(6, 0), math.Nextafter(6, 7))
	// Demand equal to the total at a power-of-two bracket: at hi = 1 and
	// hi = 4 on steps alone, and at hi = 2 where a quadratic absorbing 3ν
	// meets a step's capacity.
	check([]Server{step(1, 3, 0.5), step(2, 1, 3)}, 3, 5)
	check([]Server{step(1, 1, 0.25), quad(3, 8, 0.5)}, 7, math.Nextafter(7, 0), math.Nextafter(7, 8))

	// Roots below 1 (hi = 1), down to a tiny one.
	check([]Server{quad(2, 3, 0.4), quad(1, 1, 2)}, 1e-300, 1e-9, 0.01, 0.3, 1.2)
	check([]Server{step(1, 1, 0.5), quad(1, 4, 0.75)}, 0.1, 0.2, 1.05)

	// A quadratic saturating below the root: 4ν up to 2 at ν = 0.5,
	// then the other quadratic's ν/4 alone.
	check([]Server{quad(2, 1, 0.25), quad(1, 10, 2)}, 2.2, 2.5, 2.6, 3.9)
	check([]Server{quad(2, 1, 0.25), step(1, 2, 1), quad(1, 10, 2)}, 2.2, 3.9, 4.5, 6)

	// Affine with Rate ≤ 0, and Constant: on from ν = 0, so demand they
	// cover has ν* = 0 and the rest crosses above them.
	for _, rate := range []float64{0, -0.5} {
		check([]Server{step(2, 1, rate), quad(1, 4, 0.5)}, 1, 2, 2.5, 5)
		check([]Server{{Active: 3, Cap: 1, F: costfn.Constant{C: 1}}, step(1, 2, rate), quad(1, 4, 0.5)}, 4, 5, 6)
	}
	t.Logf("%d of %d cases took the predicted cell", fast, cases)
	if fast < cases/2 {
		t.Errorf("only %d of %d cases took the predicted cell", fast, cases)
	}
}

// FuzzPredictedDual draws step and quadratic fleets — the families the
// predicted cell covers — and demands anywhere up to and past capacity,
// sometimes snapped to a partial capacity sum, and checks the predicted
// and the searched ν* against the reference bisection.
func FuzzPredictedDual(f *testing.F) {
	f.Add(int64(1), 0.4)
	f.Add(int64(5), 0.999)
	f.Add(int64(12), 0.05)
	f.Fuzz(func(t *testing.T, seed int64, frac float64) {
		rng := rand.New(rand.NewSource(seed))
		servers := make([]Server, 2+rng.Intn(3))
		totalCap := 0.0
		for j := range servers {
			var fn costfn.Func
			switch rng.Intn(4) {
			case 0:
				fn = costfn.Constant{C: rng.Float64()}
			case 1:
				fn = costfn.Affine{Idle: rng.Float64(), Rate: 4*rng.Float64() - 1}
			case 2:
				fn = costfn.Power{Idle: rng.Float64(), Coef: 3 * rng.Float64(), Exp: 1}
			default:
				fn = costfn.Power{Idle: rng.Float64(), Coef: 0.05 + 3*rng.Float64(), Exp: 2}
			}
			servers[j] = Server{Active: rng.Intn(6), Cap: 0.25 + 4*rng.Float64(), F: fn}
			totalCap += float64(servers[j].Active) * servers[j].Cap
		}
		lambda := sanitize(frac, 0, 1.05) * totalCap
		if rng.Intn(4) == 0 {
			// A partial capacity sum: a flat total at lambda.
			lambda = 0
			for _, s := range servers {
				if rng.Intn(2) == 0 {
					lambda += float64(s.Active) * s.Cap
				}
			}
		}
		if lambda > 0 && lambda <= totalCap {
			checkPredicted(t, servers, lambda)
		}
	})
}
