package dispatch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costfn"
)

// bruteForce grids the simplex with `steps` subdivisions per dimension and
// returns the best total cost found. It is exponential in d, so tests keep
// d <= 3. Used as the ground truth for the water-filling solver.
func bruteForce(servers []Server, lambda float64, steps int) float64 {
	d := len(servers)
	best := math.Inf(1)
	var rec func(j int, remaining float64, acc float64)
	rec = func(j int, remaining float64, acc float64) {
		if acc >= best {
			return
		}
		if j == d-1 {
			y := remaining
			cap := float64(servers[j].Active) * servers[j].Cap
			if y > cap*(1+1e-9) {
				return
			}
			if servers[j].Active == 0 && y > 1e-12 {
				return
			}
			total := acc + phi(servers[j], y)
			if total < best {
				best = total
			}
			return
		}
		cap := float64(servers[j].Active) * servers[j].Cap
		maxY := math.Min(remaining, cap)
		for i := 0; i <= steps; i++ {
			y := maxY * float64(i) / float64(steps)
			rec(j+1, remaining-y, acc+phi(servers[j], y))
		}
	}
	rec(0, lambda, 0)
	return best
}

func TestAssignZeroDemand(t *testing.T) {
	servers := []Server{
		{Active: 2, Cap: 1, F: costfn.Affine{Idle: 3, Rate: 1}},
		{Active: 1, Cap: 4, F: costfn.Affine{Idle: 5, Rate: 1}},
	}
	a := Assign(servers, 0)
	if a.Cost != 2*3+5 {
		t.Errorf("idle cost = %g, want 11", a.Cost)
	}
	for j, z := range a.Z {
		if z != 0 {
			t.Errorf("Z[%d] = %g, want 0", j, z)
		}
	}
}

func TestAssignInfeasible(t *testing.T) {
	servers := []Server{{Active: 1, Cap: 1, F: costfn.Constant{C: 1}}}
	if a := Assign(servers, 2); !math.IsInf(a.Cost, 1) {
		t.Errorf("cost = %g, want +Inf for demand above capacity", a.Cost)
	}
	if a := Assign(nil, 1); !math.IsInf(a.Cost, 1) {
		t.Errorf("cost = %g, want +Inf with no servers", a.Cost)
	}
	if a := Assign([]Server{{Active: 0, Cap: 1, F: costfn.Constant{C: 1}}}, 1); !math.IsInf(a.Cost, 1) {
		t.Errorf("cost = %g, want +Inf with no active servers", a.Cost)
	}
}

func TestAssignSingleType(t *testing.T) {
	servers := []Server{{Active: 4, Cap: 1, F: costfn.Power{Idle: 1, Coef: 1, Exp: 2}}}
	a := Assign(servers, 2)
	// 4 servers, volume 2: each runs at load 0.5 → cost 4·(1 + 0.25) = 5.
	if math.Abs(a.Cost-5) > 1e-9 {
		t.Errorf("cost = %g, want 5", a.Cost)
	}
	if math.Abs(a.Y[0]-2) > 1e-12 || math.Abs(a.Z[0]-1) > 1e-12 {
		t.Errorf("Y=%v Z=%v, want full volume on the only type", a.Y, a.Z)
	}
}

func TestAssignTwoAffineFillsCheaperFirst(t *testing.T) {
	// Type 0 marginal 1, type 1 marginal 5: all load goes to type 0 until
	// its capacity binds.
	servers := []Server{
		{Active: 2, Cap: 1, F: costfn.Affine{Idle: 1, Rate: 1}},
		{Active: 3, Cap: 1, F: costfn.Affine{Idle: 1, Rate: 5}},
	}
	a := Assign(servers, 1.5)
	if math.Abs(a.Y[0]-1.5) > 1e-9 || math.Abs(a.Y[1]) > 1e-9 {
		t.Errorf("Y = %v, want [1.5 0]", a.Y)
	}
	// Cost: idle 2·1 + 3·1 = 5; load 1.5·1 = 1.5.
	if math.Abs(a.Cost-6.5) > 1e-9 {
		t.Errorf("cost = %g, want 6.5", a.Cost)
	}

	// Demand beyond type 0's capacity spills to type 1.
	a = Assign(servers, 3)
	if math.Abs(a.Y[0]-2) > 1e-9 || math.Abs(a.Y[1]-1) > 1e-9 {
		t.Errorf("Y = %v, want [2 1]", a.Y)
	}
	if math.Abs(a.Cost-(5+2*1+1*5)) > 1e-9 {
		t.Errorf("cost = %g, want 12", a.Cost)
	}
}

func TestAssignIdenticalQuadraticsSplitEvenly(t *testing.T) {
	f := costfn.Power{Idle: 0, Coef: 1, Exp: 2}
	servers := []Server{
		{Active: 1, Cap: 10, F: f},
		{Active: 1, Cap: 10, F: f},
	}
	a := Assign(servers, 4)
	if math.Abs(a.Y[0]-2) > 1e-6 || math.Abs(a.Y[1]-2) > 1e-6 {
		t.Errorf("Y = %v, want even [2 2]", a.Y)
	}
	if math.Abs(a.Cost-8) > 1e-6 {
		t.Errorf("cost = %g, want 8", a.Cost)
	}
}

func TestAssignQuadraticServerCountWeighting(t *testing.T) {
	// Same quadratic type, but 3 vs 1 active servers: marginal cost of a
	// type with x servers at volume y is f'(y/x) = 2y/x, so the optimum
	// equalises y/x → volumes split 3:1.
	f := costfn.Power{Idle: 1, Coef: 2, Exp: 2}
	servers := []Server{
		{Active: 3, Cap: 10, F: f},
		{Active: 1, Cap: 10, F: f},
	}
	a := Assign(servers, 8)
	if math.Abs(a.Y[0]-6) > 1e-6 || math.Abs(a.Y[1]-2) > 1e-6 {
		t.Errorf("Y = %v, want [6 2]", a.Y)
	}
}

func TestAssignMatchesBruteForceMixedFamilies(t *testing.T) {
	servers := []Server{
		{Active: 2, Cap: 1, F: costfn.Affine{Idle: 1, Rate: 2}},
		{Active: 1, Cap: 4, F: costfn.Power{Idle: 2, Coef: 0.5, Exp: 2}},
		{Active: 3, Cap: 0.5, F: costfn.MustPiecewiseLinear(
			[]float64{0, 0.25, 0.5}, []float64{0.5, 0.8, 1.6})},
	}
	for _, lambda := range []float64{0.3, 1, 2.5, 4, 6} {
		got := Assign(servers, lambda)
		want := bruteForce(servers, lambda, 400)
		if !almostLE(got.Cost, want, 1e-3) {
			t.Errorf("λ=%g: water-filling %g worse than brute force %g", lambda, got.Cost, want)
		}
		sum := 0.0
		for _, y := range got.Y {
			sum += y
		}
		if math.Abs(sum-lambda) > 1e-6 {
			t.Errorf("λ=%g: volumes sum to %g", lambda, sum)
		}
	}
}

func almostLE(a, b, tol float64) bool {
	return a <= b+tol*(1+math.Abs(b))
}

func TestAssignOpaqueFunctionFallback(t *testing.T) {
	// Exponential cost is convex increasing but implements neither
	// Differentiable nor Invertible; exercises the golden-section path.
	servers := []Server{
		{Active: 1, Cap: 5, F: expCost{}},
		{Active: 1, Cap: 5, F: costfn.Affine{Idle: 0, Rate: 3}},
	}
	got := Assign(servers, 3)
	want := bruteForce(servers, 3, 3000)
	if math.Abs(got.Cost-want) > 1e-3*(1+want) {
		t.Errorf("cost = %g, brute force %g", got.Cost, want)
	}
}

type expCost struct{}

func (expCost) Value(z float64) float64 { return math.Exp(z) - 1 }

func TestAssignPanicsOnBadInput(t *testing.T) {
	for _, tc := range []struct {
		name    string
		servers []Server
		lambda  float64
	}{
		{"negative lambda", []Server{{Active: 1, Cap: 1, F: costfn.Constant{}}}, -1},
		{"NaN lambda", []Server{{Active: 1, Cap: 1, F: costfn.Constant{}}}, math.NaN()},
		{"negative count", []Server{{Active: -1, Cap: 1, F: costfn.Constant{}}}, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			Assign(tc.servers, tc.lambda)
		}()
	}
}

func TestAssignCapacityExactlyMet(t *testing.T) {
	servers := []Server{
		{Active: 2, Cap: 1, F: costfn.Affine{Idle: 1, Rate: 1}},
		{Active: 1, Cap: 2, F: costfn.Affine{Idle: 1, Rate: 2}},
	}
	a := Assign(servers, 4) // exactly total capacity
	if math.IsInf(a.Cost, 1) {
		t.Fatal("demand equal to capacity must be feasible")
	}
	if math.Abs(a.Y[0]-2) > 1e-6 || math.Abs(a.Y[1]-2) > 1e-6 {
		t.Errorf("Y = %v, want both types saturated", a.Y)
	}
}

// Property: for random instances (d ≤ 3, mixed cost families), the
// water-filling cost is within tolerance of brute force, volumes respect
// capacities and sum to λ.
func TestAssignOptimalityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		servers := make([]Server, d)
		totalCap := 0.0
		for j := range servers {
			active := rng.Intn(4)
			cap := 0.5 + rng.Float64()*2
			var f costfn.Func
			switch rng.Intn(4) {
			case 0:
				f = costfn.Constant{C: rng.Float64() * 3}
			case 1:
				f = costfn.Affine{Idle: rng.Float64(), Rate: rng.Float64() * 4}
			case 2:
				f = costfn.Power{Idle: rng.Float64(), Coef: rng.Float64()*3 + 0.1, Exp: 1 + rng.Float64()*2}
			default:
				f = costfn.MustPiecewiseLinear(
					[]float64{0, cap / 2, cap},
					[]float64{0.1, 0.1 + rng.Float64(), 0.1 + rng.Float64() + 2},
				)
			}
			servers[j] = Server{Active: active, Cap: cap, F: f}
			totalCap += float64(active) * cap
		}
		lambda := rng.Float64() * totalCap
		got := Assign(servers, lambda)
		if lambda == 0 {
			return !math.IsInf(got.Cost, 1)
		}
		if totalCap == 0 {
			return math.IsInf(got.Cost, 1)
		}
		want := bruteForce(servers, lambda, 120)
		if !almostLE(got.Cost, want, 5e-2) {
			return false
		}
		sum := 0.0
		for j, y := range got.Y {
			if y < -1e-12 || y > float64(servers[j].Active)*servers[j].Cap*(1+1e-9)+1e-12 {
				return false
			}
			sum += y
		}
		return math.Abs(sum-lambda) < 1e-6*(1+lambda)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property (Lemma 2 direction): the reported cost never exceeds the cost of
// any random feasible assignment.
func TestAssignNeverWorseThanRandomSplit(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		servers := []Server{
			{Active: 1 + rng.Intn(3), Cap: 1 + rng.Float64(), F: costfn.Power{Idle: rng.Float64(), Coef: 1, Exp: 2}},
			{Active: 1 + rng.Intn(3), Cap: 1 + rng.Float64(), F: costfn.Affine{Idle: rng.Float64(), Rate: rng.Float64() * 2}},
		}
		cap0 := float64(servers[0].Active) * servers[0].Cap
		cap1 := float64(servers[1].Active) * servers[1].Cap
		lambda := rng.Float64() * (cap0 + cap1)
		opt := Assign(servers, lambda)
		// Random feasible split.
		y0 := math.Min(rng.Float64()*lambda, cap0)
		y1 := lambda - y0
		if y1 > cap1 {
			y1 = cap1
			y0 = lambda - y1
			if y0 > cap0 {
				return true // numerically tight instance; skip
			}
		}
		manual := phi(servers[0], y0) + phi(servers[1], y1)
		return opt.Cost <= manual+1e-6*(1+manual)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAssignInvertibleD2(b *testing.B) {
	servers := []Server{
		{Active: 8, Cap: 1, F: costfn.Power{Idle: 1, Coef: 1, Exp: 2}},
		{Active: 4, Cap: 4, F: costfn.Affine{Idle: 2, Rate: 0.5}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Assign(servers, 7.3)
	}
}

func BenchmarkAssignInvertibleD4(b *testing.B) {
	servers := []Server{
		{Active: 8, Cap: 1, F: costfn.Power{Idle: 1, Coef: 1, Exp: 2}},
		{Active: 4, Cap: 4, F: costfn.Affine{Idle: 2, Rate: 0.5}},
		{Active: 2, Cap: 2, F: costfn.Power{Idle: 0.5, Coef: 2, Exp: 3}},
		{Active: 6, Cap: 1, F: costfn.Constant{C: 1}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Assign(servers, 11.1)
	}
}

func BenchmarkAssignOpaque(b *testing.B) {
	servers := []Server{
		{Active: 2, Cap: 5, F: expCost{}},
		{Active: 2, Cap: 5, F: expCost{}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Assign(servers, 6)
	}
}
