package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/solver"
)

// randomStaticInstance builds a feasible instance with time-independent
// costs and strictly positive switching costs.
func randomStaticInstance(rng *rand.Rand, maxD, maxM, maxT int) *model.Instance {
	d := 1 + rng.Intn(maxD)
	T := 1 + rng.Intn(maxT)
	types := make([]model.ServerType, d)
	totalCap := 0.0
	for j := range types {
		count := 1 + rng.Intn(maxM)
		capacity := 0.5 + rng.Float64()*2
		var f costfn.Func
		switch rng.Intn(3) {
		case 0:
			f = costfn.Constant{C: 0.1 + rng.Float64()*3}
		case 1:
			f = costfn.Affine{Idle: 0.1 + rng.Float64()*2, Rate: rng.Float64() * 3}
		default:
			f = costfn.Power{Idle: 0.1 + rng.Float64(), Coef: 0.1 + rng.Float64()*2, Exp: 1 + rng.Float64()*2}
		}
		types[j] = model.ServerType{
			Count:      count,
			SwitchCost: 0.5 + rng.Float64()*8,
			MaxLoad:    capacity,
			Cost:       model.Static{F: f},
		}
		totalCap += float64(count) * capacity
	}
	lambda := make([]float64, T)
	for t := range lambda {
		if rng.Intn(4) == 0 {
			lambda[t] = 0 // idle periods exercise power-down logic
		} else {
			lambda[t] = rng.Float64() * totalCap * 0.9
		}
	}
	return &model.Instance{Types: types, Lambda: lambda}
}

// randomVaryingInstance additionally randomises per-slot cost scaling
// (time-dependent idle costs).
func randomVaryingInstance(rng *rand.Rand, maxD, maxM, maxT int) *model.Instance {
	ins := randomStaticInstance(rng, maxD, maxM, maxT)
	for j := range ins.Types {
		base := ins.Types[j].Cost.(model.Static).F
		scale := make([]float64, ins.T())
		for t := range scale {
			scale[t] = 0.25 + rng.Float64()*2
		}
		ins.Types[j].Cost = model.Modulated{F: base, Scale: scale}
	}
	return ins
}

// ---------- TypeA state machine ----------

func TestTypeAPowersDownAfterTbar(t *testing.T) {
	s := NewTypeA(3)
	// Power up 2 servers at slot 1; they must expire at slot 4.
	got := []int{s.Step(2), s.Step(0), s.Step(0), s.Step(0), s.Step(0)}
	want := []int{2, 2, 2, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace = %v, want %v", got, want)
		}
	}
}

func TestTypeAOverlappingBlocks(t *testing.T) {
	s := NewTypeA(2)
	// Slot 1: up to 1. Slot 2: up to 3 (2 more). Slot 3: the first
	// expires (x 3→2), target 0 keeps 2. Slot 4: the two from slot 2
	// expire → 0.
	got := []int{s.Step(1), s.Step(3), s.Step(0), s.Step(0)}
	want := []int{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace = %v, want %v", got, want)
		}
	}
}

func TestTypeARepeatedDemandKeepsServerUp(t *testing.T) {
	s := NewTypeA(2)
	// Demand 1 every slot: expiry at slot 3 dips to 0 then tops back up
	// within the same slot, so the visible count never drops.
	for i := 0; i < 6; i++ {
		if got := s.Step(1); got != 1 {
			t.Fatalf("slot %d: x = %d, want 1", i+1, got)
		}
	}
}

func TestTimeoutA(t *testing.T) {
	cases := []struct {
		beta, idle float64
		want       int
	}{
		{6, 2, 3},
		{6, 4, 2}, // ⌈1.5⌉
		{5, 5, 1},
		{0, 3, 1},  // β=0 still serves the mandated slot
		{3, 0, -1}, // infinite: checked separately
		// β/f(0) beyond int's range clamps to the infinite timeout
		// instead of converting to a negative t̄.
		{1, 1e-19, -1},
		{1, 1e-300, -1},
		{1, 5e-324, -1},
	}
	for _, c := range cases {
		got := TimeoutA(c.beta, c.idle)
		if c.want == -1 {
			if got < 1<<40 {
				t.Errorf("TimeoutA(%g,%g) = %d, want effectively infinite", c.beta, c.idle, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("TimeoutA(%g,%g) = %d, want %d", c.beta, c.idle, got, c.want)
		}
	}
	for _, bad := range [][2]float64{{-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative parameters should panic")
				}
			}()
			TimeoutA(bad[0], bad[1])
		}()
	}
}

// A type whose idle cost is positive but tiny next to its switching
// cost keeps its servers up for ⌈β/f(0)⌉ slots — for all practical
// purposes forever — even though the prefix optimum drops to zero once
// demand is gone.
func TestAlgorithmATinyIdleCostKeepsServersUp(t *testing.T) {
	types := []model.ServerType{{Count: 4, SwitchCost: 1, MaxLoad: 1,
		Cost: model.Static{F: costfn.Affine{Idle: 1e-19, Rate: 1}}}}
	a, err := NewAlgorithmA(types)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Timeout(0); got != noTimeout {
		t.Fatalf("t̄ = %d, want %d", got, noTimeout)
	}
	for s, lambda := range []float64{4, 0, 0, 0, 0, 0} {
		x := a.Step(model.SlotInput{T: s + 1, Lambda: lambda})
		if x[0] != 4 {
			t.Fatalf("slot %d: %d servers up (prefix optimum %v), want all 4 kept", s+1, x[0], a.PrefixOpt())
		}
	}
}

func TestNewTypeAPanicsOnBadTbar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTypeA(0)
}

// ---------- TypeB state machine: the paper's Figure 3 example ----------

// Figure 3: β_j = 6, idle costs l and prefix-optimal targets x̂ as printed
// in the figure. The expected x^B trace follows the figure's plot, and the
// expirations match the printed W_t sets (only slots with actual power-ups
// matter: W_5 = {1,2}, W_9 ∋ 4, W_10 ∋ 8).
func TestTypeBPaperFigure3(t *testing.T) {
	ls := []float64{3, 1, 4, 1, 2, 1, 1, 2, 3, 5, 1, 3}
	xhat := []int{1, 2, 1, 3, 0, 0, 1, 2, 0, 0, 0, 0}
	want := []int{1, 2, 2, 3, 1, 1, 1, 2, 1, 0, 0, 0}
	s := NewTypeB(6)
	for i := range ls {
		if got := s.Step(ls[i], xhat[i]); got != want[i] {
			t.Fatalf("slot %d: x^B = %d, want %d", i+1, got, want[i])
		}
	}
}

func TestTypeBZeroBetaExpiresOnNextPositiveIdleCost(t *testing.T) {
	s := NewTypeB(0)
	if got := s.Step(1, 2); got != 2 {
		t.Fatalf("power up failed: %d", got)
	}
	// β = 0: the next slot with positive idle cost exceeds the budget.
	if got := s.Step(1, 0); got != 0 {
		t.Errorf("x = %d, want 0 after immediate expiry", got)
	}
	if s.Active() != 0 {
		t.Error("Active should be 0")
	}
}

func TestTypeBZeroIdleCostNeverExpires(t *testing.T) {
	s := NewTypeB(2)
	s.Step(0, 3)
	for i := 0; i < 10; i++ {
		if got := s.Step(0, 0); got != 3 {
			t.Fatalf("x = %d, want 3 (zero idle cost never crosses β)", got)
		}
	}
}

func TestTypeBNegativeBetaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTypeB(-1)
}

// ---------- Algorithm A ----------

func TestAlgorithmARejectsTimeDependentCosts(t *testing.T) {
	ins := randomVaryingInstance(rand.New(rand.NewSource(1)), 2, 2, 4)
	if _, err := NewAlgorithmA(ins.Types); err == nil {
		t.Error("expected error for time-dependent costs")
	}
}

func TestAlgorithmAFeasibleAndInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		ins := randomStaticInstance(rng, 3, 3, 10)
		a, err := NewAlgorithmA(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		var sched model.Schedule
		for ts := 1; ts <= ins.T(); ts++ {
			x := a.Step(ins.Slot(ts)).Clone()
			// Power-up rule: x^A >= x̂^t_t (Lemma 1's key invariant).
			xhat := a.PrefixOpt()
			for j := range x {
				if x[j] < xhat[j] {
					t.Fatalf("case %d slot %d: x^A=%v below x̂=%v", i, len(sched)+1, x, xhat)
				}
			}
			sched = append(sched, x)
		}
		if err := ins.Feasible(sched); err != nil {
			t.Fatalf("case %d: infeasible schedule: %v", i, err)
		}
	}
}

// Theorem 8: C(X^A) <= (2d+1) · C(X̂^T).
func TestAlgorithmACompetitiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		ins := randomStaticInstance(rng, 2, 3, 8)
		a, err := NewAlgorithmA(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		sched := Run(a, ins)
		cost := model.NewEvaluator(ins).Cost(sched).Total()
		opt, err := solver.OptimalCost(ins)
		if err != nil {
			t.Fatal(err)
		}
		bound := RatioBoundA(ins) * opt
		if !numeric.LessEqual(cost, bound, 1e-9) {
			t.Fatalf("case %d: C(X^A)=%g exceeds (2d+1)·OPT=%g (d=%d, opt=%g)",
				i, cost, bound, ins.D(), opt)
		}
	}
}

// Corollary 9: with load- and time-independent costs the ratio is 2d.
func TestAlgorithmAConstantCostBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		ins := randomStaticInstance(rng, 2, 3, 8)
		for j := range ins.Types {
			ins.Types[j].Cost = model.Static{F: costfn.Constant{C: 0.1 + rng.Float64()*3}}
		}
		a, err := NewAlgorithmA(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		sched := Run(a, ins)
		cost := model.NewEvaluator(ins).Cost(sched).Total()
		opt, err := solver.OptimalCost(ins)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * float64(ins.D()) * opt
		if !numeric.LessEqual(cost, bound, 1e-9) {
			t.Fatalf("case %d: C(X^A)=%g exceeds 2d·OPT=%g", i, cost, bound)
		}
	}
}

func TestAlgorithmATimeoutAccessor(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 2, SwitchCost: 6, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 2}},
		}},
		Lambda: []float64{1, 1},
	}
	a, err := NewAlgorithmA(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	if a.Timeout(0) != 3 {
		t.Errorf("t̄ = %d, want 3", a.Timeout(0))
	}
	if a.Name() != "AlgorithmA" {
		t.Error("Name")
	}
}

// ---------- Algorithm B ----------

func TestAlgorithmBFeasibleAndInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		ins := randomVaryingInstance(rng, 3, 3, 10)
		b, err := NewAlgorithmB(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		var sched model.Schedule
		for ts := 1; ts <= ins.T(); ts++ {
			x := b.Step(ins.Slot(ts)).Clone()
			xhat := b.PrefixOpt()
			for j := range x {
				if x[j] < xhat[j] {
					t.Fatalf("case %d slot %d: x^B=%v below x̂=%v", i, len(sched)+1, x, xhat)
				}
			}
			sched = append(sched, x)
		}
		if err := ins.Feasible(sched); err != nil {
			t.Fatalf("case %d: infeasible schedule: %v", i, err)
		}
	}
}

// Theorem 13: C(X^B) <= (2d+1+c(I)) · OPT.
func TestAlgorithmBCompetitiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 40; i++ {
		ins := randomVaryingInstance(rng, 2, 3, 8)
		b, err := NewAlgorithmB(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		sched := Run(b, ins)
		cost := model.NewEvaluator(ins).Cost(sched).Total()
		opt, err := solver.OptimalCost(ins)
		if err != nil {
			t.Fatal(err)
		}
		bound := RatioBoundB(ins) * opt
		if !numeric.LessEqual(cost, bound, 1e-9) {
			t.Fatalf("case %d: C(X^B)=%g exceeds (2d+1+c)·OPT=%g (c=%g)",
				i, cost, bound, CI(ins))
		}
	}
}

func TestAlgorithmBMatchesAOnStaticInstances(t *testing.T) {
	// On time-independent costs, B's accumulated-idle-cost rule gives
	// run lengths within one slot of A's ⌈β/l⌉ rule (B excludes the
	// power-up slot, A includes it); both satisfy A's bound. Here we just
	// check B stays within (2d+1)·OPT too on static instances.
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 20; i++ {
		ins := randomStaticInstance(rng, 2, 3, 8)
		b, err := NewAlgorithmB(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		cost := model.NewEvaluator(ins).Cost(Run(b, ins)).Total()
		opt, _ := solver.OptimalCost(ins)
		// B's guarantee on static instances: 2d+1+c(I).
		if !numeric.LessEqual(cost, RatioBoundB(ins)*opt, 1e-9) {
			t.Fatalf("case %d: B exceeded its bound on a static instance", i)
		}
	}
}

func TestCI(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{
			{Count: 1, SwitchCost: 2, MaxLoad: 1,
				Cost: model.Varying{Fs: []costfn.Func{
					costfn.Constant{C: 1}, costfn.Constant{C: 4},
				}}},
			{Count: 1, SwitchCost: 8, MaxLoad: 1,
				Cost: model.Static{F: costfn.Constant{C: 2}}},
		},
		Lambda: []float64{1, 1},
	}
	// c(I) = max(1/2, 4/2) + 2/8 = 2.25.
	if got := CI(ins); math.Abs(got-2.25) > 1e-12 {
		t.Errorf("c(I) = %g, want 2.25", got)
	}
}

func TestCIZeroBeta(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 0, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 2}},
		}},
		Lambda: []float64{1},
	}
	if !math.IsInf(CI(ins), 1) {
		t.Error("β=0 with positive idle cost should give infinite c(I)")
	}
}

// ---------- Algorithm C ----------

func TestAlgorithmCArgValidation(t *testing.T) {
	ins := randomVaryingInstance(rand.New(rand.NewSource(2)), 2, 2, 4)
	if _, err := NewAlgorithmC(ins.Types, 0); err == nil {
		t.Error("eps = 0 should error")
	}
	ins.Types[0].SwitchCost = 0
	if _, err := NewAlgorithmC(ins.Types, 0.5); err == nil {
		t.Error("β = 0 should error")
	}
}

func TestAlgorithmCSubdivisionCounts(t *testing.T) {
	// d=1, eps=0.5 → d/eps = 2; idle costs 1 and 3 with β=2 give ratios
	// 0.5 and 1.5 → ñ = ⌈1⌉=1 and ⌈3⌉=3.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Varying{Fs: []costfn.Func{
				costfn.Constant{C: 1}, costfn.Constant{C: 3},
			}},
		}},
		Lambda: []float64{1, 1},
	}
	c, err := NewAlgorithmC(ins.Types, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c.Step(ins.Slot(1))
	if c.MaxN() != 1 {
		t.Errorf("ñ_1 = %d, want 1", c.MaxN())
	}
	c.Step(ins.Slot(2))
	if c.MaxN() != 3 {
		t.Errorf("max ñ = %d, want 3", c.MaxN())
	}
	// Equation (16): c(Ĩ) <= eps (here d=1, n=d/eps) on the materialised
	// modified instance the push-based run corresponds to.
	sub, err := model.Subdivide(ins, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := CI(sub.Mod); got > 0.5+1e-9 {
		t.Errorf("c(Ĩ) = %g, want <= 0.5", got)
	}
}

func TestAlgorithmCFeasibleSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 25; i++ {
		ins := randomVaryingInstance(rng, 2, 3, 6)
		c, err := NewAlgorithmC(ins.Types, 1)
		if err != nil {
			t.Fatal(err)
		}
		sched := Run(c, ins)
		if len(sched) != ins.T() {
			t.Fatalf("case %d: schedule has %d slots, want %d", i, len(sched), ins.T())
		}
		if err := ins.Feasible(sched); err != nil {
			t.Fatalf("case %d: infeasible: %v", i, err)
		}
	}
}

// Theorem 15: C(X^C) <= (2d+1+ε) · OPT.
func TestAlgorithmCCompetitiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 25; i++ {
		ins := randomVaryingInstance(rng, 2, 2, 6)
		for _, eps := range []float64{2, 0.5} {
			c, err := NewAlgorithmC(ins.Types, eps)
			if err != nil {
				t.Fatal(err)
			}
			sched := Run(c, ins)
			cost := model.NewEvaluator(ins).Cost(sched).Total()
			opt, err := solver.OptimalCost(ins)
			if err != nil {
				t.Fatal(err)
			}
			bound := (2*float64(ins.D()) + 1 + eps) * opt
			if !numeric.LessEqual(cost, bound, 1e-9) {
				t.Fatalf("case %d eps=%g: C(X^C)=%g exceeds bound %g", i, eps, cost, bound)
			}
		}
	}
}

// Lemma 14: the projected schedule costs no more (on I) than X^B costs on Ĩ.
func TestAlgorithmCProjectionLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20; i++ {
		ins := randomVaryingInstance(rng, 2, 2, 5)
		c, err := NewAlgorithmC(ins.Types, 1)
		if err != nil {
			t.Fatal(err)
		}
		cSched := Run(c, ins)
		// Rebuild the modified instance Ĩ the push-based run synthesised
		// (ñ_t from slot-t data alone) and rerun B on it (deterministic).
		ns := make([]int, ins.T())
		d := float64(ins.D())
		for t := 1; t <= ins.T(); t++ {
			ratio := 0.0
			for _, st := range ins.Types {
				if r := st.Cost.At(t).Value(0) / st.SwitchCost; r > ratio {
					ratio = r
				}
			}
			ns[t-1] = int(math.Ceil(d / 1 * ratio))
			if ns[t-1] < 1 {
				ns[t-1] = 1
			}
		}
		sub, err := model.Subdivide(ins, ns)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewAlgorithmB(sub.Mod.Types)
		if err != nil {
			t.Fatal(err)
		}
		bSched := Run(b, sub.Mod)
		cCost := model.NewEvaluator(ins).Cost(cSched).Total()
		bCost := model.NewEvaluator(sub.Mod).Cost(bSched).Total()
		if !numeric.LessEqual(cCost, bCost, 1e-6) {
			t.Fatalf("case %d: C(X^C)=%g exceeds C(X^B on Ĩ)=%g", i, cCost, bCost)
		}
	}
}

func TestAlgorithmCOutOfOrderSlotPanics(t *testing.T) {
	ins := randomVaryingInstance(rand.New(rand.NewSource(3)), 1, 2, 2)
	c, err := NewAlgorithmC(ins.Types, 1)
	if err != nil {
		t.Fatal(err)
	}
	Run(c, ins)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Step(ins.Slot(1)) // slot 1 again: protocol violation
}

func TestAlgorithmCNameAndBound(t *testing.T) {
	ins := randomVaryingInstance(rand.New(rand.NewSource(4)), 2, 2, 3)
	c, err := NewAlgorithmC(ins.Types, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() == "" {
		t.Error("empty name")
	}
	want := 2*float64(ins.D()) + 1 + 0.25
	if math.Abs(c.RatioBound()-want) > 1e-12 {
		t.Errorf("RatioBound = %g, want %g", c.RatioBound(), want)
	}
}

// ---------- Run helper ----------

func TestRunCollectsFullSchedule(t *testing.T) {
	ins := randomStaticInstance(rand.New(rand.NewSource(5)), 2, 3, 7)
	a, err := NewAlgorithmA(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	sched := Run(a, ins)
	if len(sched) != ins.T() {
		t.Fatalf("schedule length %d, want %d", len(sched), ins.T())
	}
}

// ---------- benchmarks ----------

func benchStaticInstance(T, m int) *model.Instance {
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

func BenchmarkAlgorithmAT48M16(b *testing.B) {
	ins := benchStaticInstance(48, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := NewAlgorithmA(ins.Types)
		if err != nil {
			b.Fatal(err)
		}
		Run(a, ins)
	}
}

func BenchmarkAlgorithmBT48M16(b *testing.B) {
	ins := benchStaticInstance(48, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg, err := NewAlgorithmB(ins.Types)
		if err != nil {
			b.Fatal(err)
		}
		Run(alg, ins)
	}
}

func TestAlgorithmCRejectsExcessiveSubdivision(t *testing.T) {
	// Idle cost vastly above β forces ñ_t beyond MaxSubdivision.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 1e-3, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1e7}},
		}},
		Lambda: []float64{0.5},
	}
	c, err := NewAlgorithmC(ins.Types, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected MaxSubdivision rejection")
		}
	}()
	Run(c, ins)
}
