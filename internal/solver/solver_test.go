package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// ---------- helpers ----------

// randomInstance builds a feasible random instance with up to maxD types,
// maxM servers per type, and maxT slots, drawing from the mixed cost
// families.
func randomInstance(rng *rand.Rand, maxD, maxM, maxT int) *model.Instance {
	d := 1 + rng.Intn(maxD)
	T := 1 + rng.Intn(maxT)
	types := make([]model.ServerType, d)
	totalCap := 0.0
	for j := range types {
		count := 1 + rng.Intn(maxM)
		capacity := 0.5 + rng.Float64()*2
		var f costfn.Func
		switch rng.Intn(4) {
		case 0:
			f = costfn.Constant{C: rng.Float64() * 3}
		case 1:
			f = costfn.Affine{Idle: rng.Float64() * 2, Rate: rng.Float64() * 3}
		case 2:
			f = costfn.Power{Idle: rng.Float64(), Coef: 0.1 + rng.Float64()*2, Exp: 1 + rng.Float64()*2}
		default:
			s1 := rng.Float64()
			s2 := s1 + rng.Float64() // slopes non-decreasing → convex
			v1 := 0.2 + s1*capacity/2
			f = costfn.MustPiecewiseLinear(
				[]float64{0, capacity / 2, capacity},
				[]float64{0.2, v1, v1 + s2*capacity/2},
			)
		}
		types[j] = model.ServerType{
			Name:       "t",
			Count:      count,
			SwitchCost: rng.Float64() * 8,
			MaxLoad:    capacity,
			Cost:       model.Static{F: f},
		}
		totalCap += float64(count) * capacity
	}
	lambda := make([]float64, T)
	for t := range lambda {
		lambda[t] = rng.Float64() * totalCap * 0.9
	}
	return &model.Instance{Types: types, Lambda: lambda}
}

// bruteForceOptimal enumerates all schedules over the full lattice.
// Exponential: only for tiny instances.
func bruteForceOptimal(ins *model.Instance) (model.Schedule, float64) {
	eval := model.NewEvaluator(ins)
	g := grid.NewFull(countsAt(ins, 1))
	T := ins.T()
	d := ins.D()

	best := math.Inf(1)
	var bestSched model.Schedule
	cfg := make(model.Config, d)
	prev := make(model.Config, d)
	cur := make(model.Schedule, T)

	var rec func(t int, prevCfg model.Config, acc float64)
	rec = func(t int, prevCfg model.Config, acc float64) {
		if acc >= best {
			return
		}
		if t > T {
			best = acc
			bestSched = cur.Clone()
			return
		}
		gt := g
		if ins.TimeVarying() {
			gt = grid.NewFull(countsAt(ins, t))
		}
		for idx := 0; idx < gt.Size(); idx++ {
			gt.Decode(idx, cfg)
			cost := eval.G(t, cfg) + ins.SwitchCost(prevCfg, cfg)
			if math.IsInf(cost, 1) {
				continue
			}
			cur[t-1] = cfg.Clone()
			rec(t+1, cur[t-1], acc+cost)
		}
	}
	copy(prev, make([]int, d))
	rec(1, prev, 0)
	return bestSched, best
}

func countsAt(ins *model.Instance, t int) []int {
	m := make([]int, ins.D())
	for j := range m {
		m[j] = ins.CountAt(t, j)
	}
	return m
}

// ---------- exact solver ----------

func TestSolveOptimalHandComputedHomogeneous(t *testing.T) {
	// One type, 2 servers, cap 1, β=3, f(z)=1 (constant). Demands force
	// 1 then 2 then 1 servers. Optimal: hold 2 servers during the dip?
	// T=3, λ = (1, 2, 1): x=(1,2,2) or (1,2,1) — power-down free, so
	// (1,2,1) and (1,2,2) differ by idle cost 1; optimal keeps 1.
	// Cost: op 1+2+1 = 4; switch 3 (slot1) + 3 (slot2) = 6 → 10.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 2, SwitchCost: 3, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{1, 2, 1},
	}
	res, err := SolveOptimal(ins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost()-10) > 1e-9 {
		t.Errorf("cost = %g, want 10", res.Cost())
	}
	want := model.Schedule{{1}, {2}, {1}}
	for i := range want {
		if !res.Schedule[i].Equal(want[i]) {
			t.Errorf("slot %d: %v, want %v", i+1, res.Schedule[i], want[i])
		}
	}
}

func TestSolveOptimalSkiRentalHold(t *testing.T) {
	// β=10 dwarfs idle cost 1: across a short gap it is cheaper to hold
	// the server up than to power-cycle.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 10, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{1, 0, 0, 1},
	}
	res, err := SolveOptimal(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Hold: op 4·1, switch 10 → 14. Cycle: op 2, switch 20 → 22.
	if math.Abs(res.Cost()-14) > 1e-9 {
		t.Errorf("cost = %g, want 14 (hold through the gap)", res.Cost())
	}
	for tt := 0; tt < 4; tt++ {
		if res.Schedule[tt][0] != 1 {
			t.Errorf("slot %d: server should stay up", tt+1)
		}
	}
}

func TestSolveOptimalPowerCycleWhenCheap(t *testing.T) {
	// β=1, idle 5: power-cycling beats holding across a long gap.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 1, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 5}},
		}},
		Lambda: []float64{1, 0, 0, 1},
	}
	res, err := SolveOptimal(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle: op 10, switch 2 → 12. Hold: op 20, switch 1 → 21.
	if math.Abs(res.Cost()-12) > 1e-9 {
		t.Errorf("cost = %g, want 12 (power cycle)", res.Cost())
	}
	if res.Schedule[1][0] != 0 || res.Schedule[2][0] != 0 {
		t.Error("server should be down during the gap")
	}
}

func TestSolveOptimalHeterogeneousPrefersEfficientType(t *testing.T) {
	// Fast type (cap 4, idle 3) vs slow type (cap 1, idle 1): at high
	// load one fast server beats four slow ones.
	ins := &model.Instance{
		Types: []model.ServerType{
			{Count: 4, SwitchCost: 1, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Count: 1, SwitchCost: 1, MaxLoad: 4,
				Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.25}}},
		},
		Lambda: []float64{4, 4, 4},
	}
	res, err := SolveOptimal(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Fast-only: op 3·(3+1) = 12, switch 1 → 13.
	// Slow-only: op 3·(4+4) = 24, switch 4 → 28.
	if math.Abs(res.Cost()-13) > 1e-9 {
		t.Errorf("cost = %g, want 13", res.Cost())
	}
	for tt := range res.Schedule {
		if res.Schedule[tt][1] != 1 || res.Schedule[tt][0] != 0 {
			t.Errorf("slot %d: %v, want (0, 1)", tt+1, res.Schedule[tt])
		}
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		ins := randomInstance(rng, 2, 2, 4)
		res, err := SolveOptimal(ins)
		if err != nil {
			t.Fatal(err)
		}
		_, bfCost := bruteForceOptimal(ins)
		if !numeric.AlmostEqual(res.Cost(), bfCost, 1e-6) {
			t.Fatalf("case %d: DP %g vs brute force %g", i, res.Cost(), bfCost)
		}
		if err := ins.Feasible(res.Schedule); err != nil {
			t.Fatalf("case %d: schedule infeasible: %v", i, err)
		}
	}
}

func TestSolveInfeasibleInstance(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 1, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{2},
	}
	if _, err := SolveOptimal(ins); err == nil {
		t.Error("expected error for infeasible instance")
	}
}

// A γ-reduced solve over a fleet that shrinks for five slots records
// layers of two lattice sizes in its arena and walks back over both.
func TestSolveWithGammaAndTimeVarying(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{
			{Count: 20, SwitchCost: 3, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Count: 10, SwitchCost: 8, MaxLoad: 4,
				Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.5}}},
		},
		Lambda: workload.Diurnal(30, 2, 18, 10, 0),
	}
	counts := make([][]int, ins.T())
	for t := range counts {
		counts[t] = []int{20, 10}
		if t >= 10 && t < 15 {
			counts[t] = []int{8, 10}
		}
	}
	ins.Counts = counts

	res, err := Solve(ins, Options{Gamma: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Feasible(res.Schedule); err != nil {
		t.Fatal(err)
	}
	plain, err := memoless(func() (*Result, error) { return Solve(ins, Options{Gamma: 1.5}) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Cost()) != math.Float64bits(plain.Cost()) {
		t.Fatalf("cost %v != memo-off %v", res.Cost(), plain.Cost())
	}
	for s := range plain.Schedule {
		if !res.Schedule[s].Equal(plain.Schedule[s]) {
			t.Fatalf("slot %d: schedule %v != memo-off %v", s+1, res.Schedule[s], plain.Schedule[s])
		}
	}
}

func TestSolveSingleSlot(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 2, SwitchCost: 1, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{1},
	}
	res, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(res.Cost(), 2, 1e-12) { // β + idle
		t.Errorf("cost = %v, want 2", res.Cost())
	}
}

func TestOptimalCostMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		ins := randomInstance(rng, 3, 3, 6)
		res, err := SolveOptimal(ins)
		if err != nil {
			t.Fatal(err)
		}
		c, err := OptimalCost(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(res.Cost(), c, 1e-9) {
			t.Fatalf("case %d: Solve %g vs OptimalCost %g", i, res.Cost(), c)
		}
	}
}

// ---------- relaxation ----------

func TestRelaxMatchesNaiveProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		betas := make([]float64, d)
		fromAxes := make([]grid.Axis, d)
		toAxes := make([]grid.Axis, d)
		for j := 0; j < d; j++ {
			betas[j] = rng.Float64() * 5
			fromAxes[j] = randomAxis(rng)
			toAxes[j] = randomAxis(rng)
		}
		from := grid.New(fromAxes)
		to := grid.New(toAxes)
		prev := make([]float64, from.Size())
		for i := range prev {
			prev[i] = rng.Float64() * 20
			if rng.Intn(8) == 0 {
				prev[i] = math.Inf(1)
			}
		}
		rx := newRelaxer(betas)
		fast := rx.relax(prev, from, to, make([]float64, to.Size()))
		naive := relaxNaive(prev, from, to, betas)
		for i := range naive {
			if !numeric.AlmostEqual(fast[i], naive[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomAxis(rng *rand.Rand) grid.Axis {
	m := 1 + rng.Intn(6)
	if rng.Intn(2) == 0 {
		return grid.FullAxis(m)
	}
	return grid.ReducedAxis(3+rng.Intn(12), 1.3+rng.Float64())
}

func TestRelaxPreservesInput(t *testing.T) {
	betas := []float64{2, 3}
	g := grid.NewFull([]int{2, 2})
	prev := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	orig := append([]float64(nil), prev...)
	rx := newRelaxer(betas)
	rx.relax(prev, g, g, make([]float64, g.Size()))
	for i := range prev {
		if prev[i] != orig[i] {
			t.Fatal("relax must not mutate its input layer")
		}
	}
}

// ---------- approximation ----------

func TestSolveApproxBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		ins := randomInstance(rng, 2, 12, 6)
		opt, err := SolveOptimal(ins)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{2, 1, 0.5} {
			apx, err := SolveApprox(ins, eps)
			if err != nil {
				t.Fatal(err)
			}
			bound := (1 + eps) * opt.Cost()
			if !numeric.LessEqual(apx.Cost(), bound*(1+1e-9), 1e-9) {
				t.Fatalf("case %d eps=%g: approx %g exceeds bound %g (opt %g)",
					i, eps, apx.Cost(), bound, opt.Cost())
			}
			if apx.Cost() < opt.Cost()-1e-6*(1+opt.Cost()) {
				t.Fatalf("case %d: approx %g below optimal %g", i, apx.Cost(), opt.Cost())
			}
			if err := ins.Feasible(apx.Schedule); err != nil {
				t.Fatalf("case %d: approx schedule infeasible: %v", i, err)
			}
		}
	}
}

func TestSolveApproxLatticeSmaller(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{
			{Count: 1000, SwitchCost: 2, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Count: 500, SwitchCost: 5, MaxLoad: 4,
				Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.5}}},
		},
		Lambda: []float64{100, 900, 400},
	}
	apx, err := SolveApprox(ins, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := (1000 + 1) * (500 + 1)
	if apx.LatticeSize >= full/50 {
		t.Errorf("reduced lattice %d not much smaller than full %d", apx.LatticeSize, full)
	}
}

func TestSolveApproxRejectsBadEps(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(1)), 1, 2, 2)
	if _, err := SolveApprox(ins, 0); err == nil {
		t.Error("eps = 0 should error")
	}
	if _, err := SolveApprox(ins, -1); err == nil {
		t.Error("eps < 0 should error")
	}
}

func TestApproxReferenceCorridor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		ins := randomInstance(rng, 2, 10, 6)
		opt, err := SolveOptimal(ins)
		if err != nil {
			t.Fatal(err)
		}
		gamma := 1.25 + rng.Float64()
		ref, err := ApproxReference(ins, opt.Schedule, gamma)
		if err != nil {
			t.Fatal(err)
		}
		// Invariant (19): x* <= x' <= (2γ−1)x*.
		for tt := 1; tt <= ins.T(); tt++ {
			for j := 0; j < ins.D(); j++ {
				xs := opt.Schedule[tt-1][j]
				xp := ref[tt-1][j]
				if xp < xs {
					t.Fatalf("case %d slot %d type %d: x'=%d below x*=%d", i, tt, j, xp, xs)
				}
				if float64(xp) > (2*gamma-1)*float64(xs)+1e-9 {
					t.Fatalf("case %d slot %d type %d: x'=%d above corridor (x*=%d, γ=%g)",
						i, tt, j, xp, xs, gamma)
				}
			}
		}
		if err := ins.Feasible(ref); err != nil {
			t.Fatalf("case %d: X' infeasible: %v", i, err)
		}
		// The reduced-lattice shortest path can only beat X'.
		apx, err := Solve(ins, Options{Gamma: gamma})
		if err != nil {
			t.Fatal(err)
		}
		refCost := model.NewEvaluator(ins).Cost(ref).Total()
		if apx.Cost() > refCost*(1+1e-9)+1e-9 {
			t.Fatalf("case %d: shortest path %g worse than X' %g", i, apx.Cost(), refCost)
		}
	}
}

func TestApproxReferenceArgErrors(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(1)), 1, 2, 3)
	if _, err := ApproxReference(ins, make(model.Schedule, ins.T()), 1); err == nil {
		t.Error("gamma <= 1 should error")
	}
	if _, err := ApproxReference(ins, make(model.Schedule, ins.T()+1), 2); err == nil {
		t.Error("length mismatch should error")
	}
}

// ---------- time-varying sizes (Section 4.3) ----------

func TestSolveTimeVaryingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 30; i++ {
		ins := randomInstance(rng, 2, 3, 4)
		// Randomly shrink per-slot counts while keeping feasibility.
		counts := make([][]int, ins.T())
		for tt := 1; tt <= ins.T(); tt++ {
			row := make([]int, ins.D())
			for j := range row {
				row[j] = ins.Types[j].Count
			}
			for attempts := 0; attempts < 4; attempts++ {
				j := rng.Intn(ins.D())
				if row[j] == 0 {
					continue
				}
				row[j]--
				cap := 0.0
				for k := range row {
					cap += float64(row[k]) * ins.Types[k].MaxLoad
				}
				if cap < ins.Lambda[tt-1] {
					row[j]++ // revert: would break feasibility
				}
			}
			counts[tt-1] = row
		}
		ins.Counts = counts
		if err := ins.Validate(); err != nil {
			t.Fatalf("case %d: generated instance invalid: %v", i, err)
		}
		res, err := SolveOptimal(ins)
		if err != nil {
			t.Fatal(err)
		}
		_, bfCost := bruteForceOptimal(ins)
		if !numeric.AlmostEqual(res.Cost(), bfCost, 1e-6) {
			t.Fatalf("case %d: DP %g vs brute force %g", i, res.Cost(), bfCost)
		}
		if err := ins.Feasible(res.Schedule); err != nil {
			t.Fatalf("case %d: infeasible: %v", i, err)
		}
	}
}

func TestSolveTimeVaryingApproxFeasible(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{
			{Count: 40, SwitchCost: 3, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
		},
		Lambda: []float64{10, 30, 5, 20},
		Counts: [][]int{{40}, {40}, {10}, {40}}, // maintenance at slot 3
	}
	apx, err := SolveApprox(ins, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Feasible(apx.Schedule); err != nil {
		t.Fatalf("approx schedule violates time-varying sizes: %v", err)
	}
	if apx.Schedule[2][0] > 10 {
		t.Error("slot 3 must respect the reduced fleet")
	}
}

// ---------- prefix tracker ----------

func TestPrefixTrackerMatchesPrefixSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 25; i++ {
		ins := randomInstance(rng, 2, 3, 6)
		tr, err := NewPrefixTracker(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for tt := 1; tt <= ins.T(); tt++ {
			xhat, val := tr.Advance()
			pres, err := SolveOptimal(ins.Prefix(tt))
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(val, pres.Cost(), 1e-9) {
				t.Fatalf("case %d t=%d: tracker %g vs prefix solve %g", i, tt, val, pres.Cost())
			}
			// The tracker's configuration must attain the optimum as the
			// final state of some optimal prefix schedule: verify its DP
			// value matches by re-solving with the config pinned.
			if got := pres.Schedule[tt-1]; !got.Equal(xhat) {
				// Ties can differ; verify cost equivalence instead.
				pinned := pinFinalConfig(ins.Prefix(tt), xhat)
				if !numeric.AlmostEqual(pinned, pres.Cost(), 1e-9) {
					t.Fatalf("case %d t=%d: tracker config %v not optimal (cost %g vs %g)",
						i, tt, xhat, pinned, pres.Cost())
				}
			}
		}
		if !tr.Done() {
			t.Error("tracker should be done")
		}
	}
}

// pinFinalConfig computes the optimal cost of the instance subject to the
// final configuration being exactly x, via an independent naive DP.
func pinFinalConfig(ins *model.Instance, x model.Config) float64 {
	return naiveDPPinned(ins, x)
}

// naiveDPPinned runs an O(T·|M|²) DP and returns the optimal cost among
// schedules whose final configuration is x.
func naiveDPPinned(ins *model.Instance, x model.Config) float64 {
	eval := model.NewEvaluator(ins)
	g := grid.NewFull(countsAt(ins, 1))
	d := ins.D()
	cfg := make(model.Config, d)
	layer := make([]float64, g.Size())
	for idx := range layer {
		g.Decode(idx, cfg)
		zero := make(model.Config, d)
		layer[idx] = eval.G(1, cfg) + ins.SwitchCost(zero, cfg)
	}
	prevCfg := make(model.Config, d)
	for t := 2; t <= ins.T(); t++ {
		next := make([]float64, g.Size())
		for idx := range next {
			g.Decode(idx, cfg)
			best := math.Inf(1)
			for p := range layer {
				g.Decode(p, prevCfg)
				c := layer[p] + ins.SwitchCost(prevCfg, cfg)
				if c < best {
					best = c
				}
			}
			next[idx] = best + eval.G(t, cfg)
		}
		layer = next
	}
	idx, ok := g.Encode(x)
	if !ok {
		return math.Inf(1)
	}
	return layer[idx]
}

func TestPrefixTrackerPanicsPastEnd(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(1)), 1, 2, 1)
	tr, err := NewPrefixTracker(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Advance()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Advance()
}

func TestPrefixTrackerLatticeAccess(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(2)), 2, 3, 3)
	tr, _ := NewPrefixTracker(ins, Options{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Lattice before Advance should panic")
			}
		}()
		tr.Lattice()
	}()
	tr.Advance()
	if tr.Lattice() == nil {
		t.Error("Lattice should be available after Advance")
	}
	if tr.T() != 1 {
		t.Error("T should count advances")
	}
}

// ---------- benchmarks ----------

func benchInstance(T, m int) *model.Instance {
	lambda := make([]float64, T)
	for t := range lambda {
		lambda[t] = float64(m) / 2 * (1 + math.Sin(2*math.Pi*float64(t)/24)) * 0.9
	}
	return &model.Instance{
		Types: []model.ServerType{
			{Count: m, SwitchCost: 4, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Count: m / 2, SwitchCost: 10, MaxLoad: 4,
				Cost: model.Static{F: costfn.Power{Idle: 2, Coef: 1, Exp: 2}}},
		},
		Lambda: lambda,
	}
}

func BenchmarkSolveOptimalT48M16(b *testing.B) {
	ins := benchInstance(48, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveOptimal(ins); err != nil {
			b.Fatal(err)
		}
	}
}

// Solve records every layer in one arena and walks back over it. On the
// T = 96 bench instance, on a fresh memo that holds every layer after
// the first run, that is 46 allocations, 47 under the race detector. (A
// memo other tests filled merges differently, so without the swap the
// count would depend on the test order.)
func TestSolveAllocs(t *testing.T) {
	swapGcache(t, gcacheShards, gcacheMaxFloats)
	ins := benchInstance(96, 16)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Solve(ins, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 47 {
		t.Fatalf("Solve allocates %v times, want <= 47", allocs)
	}
}

func BenchmarkSolveApproxT48M64Eps05(b *testing.B) {
	ins := benchInstance(48, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveApprox(ins, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelaxFastD3(b *testing.B) {
	g := grid.NewFull([]int{15, 15, 15})
	betas := []float64{1, 2, 3}
	prev := make([]float64, g.Size())
	for i := range prev {
		prev[i] = float64(i % 97)
	}
	rx := newRelaxer(betas)
	dst := make([]float64, g.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.relax(prev, g, g, dst)
	}
}

func BenchmarkRelaxNaiveD3(b *testing.B) {
	g := grid.NewFull([]int{7, 7, 7})
	betas := []float64{1, 2, 3}
	prev := make([]float64, g.Size())
	for i := range prev {
		prev[i] = float64(i % 97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relaxNaive(prev, g, g, betas)
	}
}

// relaxNaive is the O(|from|·|to|·d) reference transition used for
// differential testing of the fast sweep.
func relaxNaive(prev []float64, from, to *grid.Grid, betas []float64) []float64 {
	d := from.D()
	out := make([]float64, to.Size())
	xf := make([]int, d)
	xt := make([]int, d)
	for k := 0; k < to.Size(); k++ {
		to.Decode(k, xt)
		best := math.Inf(1)
		for i := 0; i < from.Size(); i++ {
			from.Decode(i, xf)
			cost := prev[i]
			for j := 0; j < d; j++ {
				if up := xt[j] - xf[j]; up > 0 {
					cost += betas[j] * float64(up)
				}
			}
			if cost < best {
				best = cost
			}
		}
		out[k] = best
	}
	return out
}
