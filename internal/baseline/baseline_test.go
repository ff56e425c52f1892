package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/solver"
	"repro/internal/workload"
)

func smallInstance() *model.Instance {
	return &model.Instance{
		Types: []model.ServerType{
			{Name: "slow", Count: 3, SwitchCost: 2, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Name: "fast", Count: 2, SwitchCost: 8, MaxLoad: 4,
				Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.5}}},
		},
		Lambda: []float64{1, 4, 2, 0, 3},
	}
}

func homogeneousInstance() *model.Instance {
	return &model.Instance{
		Types: []model.ServerType{{
			Count: 5, SwitchCost: 3, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 0.5}},
		}},
		Lambda: workload.Diurnal(30, 0.5, 4.5, 10, 0),
	}
}

func runAll(t *testing.T, ins *model.Instance, algs ...core.Online) map[string]model.Schedule {
	t.Helper()
	out := map[string]model.Schedule{}
	for _, a := range algs {
		s := core.Run(a, ins)
		if err := ins.Feasible(s); err != nil {
			t.Fatalf("%s: infeasible schedule: %v", a.Name(), err)
		}
		out[a.Name()] = s
	}
	return out
}

func TestAllOnKeepsFleetUp(t *testing.T) {
	ins := smallInstance()
	a, err := NewAllOn(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.Run(a, ins)
	for tt, x := range sched {
		if x[0] != 3 || x[1] != 2 {
			t.Fatalf("slot %d: %v, want (3, 2)", tt+1, x)
		}
	}
}

func TestAllOnTimeVarying(t *testing.T) {
	ins := smallInstance()
	ins.Counts = [][]int{{3, 2}, {2, 2}, {3, 1}, {3, 2}, {3, 2}}
	a, _ := NewAllOn(ins.Types)
	sched := core.Run(a, ins)
	if sched[1][0] != 2 || sched[2][1] != 1 {
		t.Error("AllOn should track available counts")
	}
	if err := ins.Feasible(sched); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTrackingMinimisesSlotCost(t *testing.T) {
	ins := smallInstance()
	lt, err := NewLoadTracking(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	eval := model.NewEvaluator(ins)
	for tt := 1; tt <= ins.T(); tt++ {
		x := lt.Step(ins.Slot(tt))
		got := eval.G(tt, x)
		// Exhaustively verify optimality.
		best := math.Inf(1)
		for a := 0; a <= 3; a++ {
			for b := 0; b <= 2; b++ {
				if v := eval.G(tt, model.Config{a, b}); v < best {
					best = v
				}
			}
		}
		if !numeric.AlmostEqual(got, best, 1e-9) {
			t.Fatalf("slot %d: G=%g, best=%g", tt, got, best)
		}
	}
	// On random instances, with and without time-varying counts, every
	// decision is the one the per-cell scan makes.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		ins := randomInstance(rng)
		if i%2 == 1 {
			withRandomCounts(rng, ins)
		}
		lt, err := NewLoadTracking(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		got, want := core.Run(lt, ins), scanLoadTracking(ins)
		for tt := range want {
			if !got[tt].Equal(want[tt]) {
				t.Fatalf("case %d slot %d: %v, the scan picks %v", i, tt+1, got[tt], want[tt])
			}
		}
	}
}

// scanLoadTracking is LoadTracking's decision oracle: per slot, solve
// every cell of the full lattice with a bare evaluator and keep the
// lowest index attaining the minimum.
func scanLoadTracking(ins *model.Instance) model.Schedule {
	eval := model.NewEvaluator(ins)
	var sched model.Schedule
	for tt := 1; tt <= ins.T(); tt++ {
		in := ins.Slot(tt)
		counts := make([]int, ins.D())
		for j, st := range ins.Types {
			counts[j] = in.Count(j, st.Count)
		}
		g := grid.NewFull(counts)
		eval.Prepare(in)
		cfg := make(model.Config, ins.D())
		best, bestIdx := math.Inf(1), -1
		for idx := 0; idx < g.Size(); idx++ {
			g.Decode(idx, cfg)
			if v := eval.GPrepared(cfg); v < best {
				best, bestIdx = v, idx
			}
		}
		g.Decode(bestIdx, cfg)
		sched = append(sched, cfg)
	}
	return sched
}

// withRandomCounts gives ins time-varying fleet sizes, scaling each
// slot's demand to what the slot's fleet can serve.
func withRandomCounts(rng *rand.Rand, ins *model.Instance) {
	full := 0.0
	for _, st := range ins.Types {
		full += float64(st.Count) * st.MaxLoad
	}
	ins.Counts = make([][]int, ins.T())
	for tt := range ins.Counts {
		ins.Counts[tt] = make([]int, ins.D())
		capacity := 0.0
		for j, st := range ins.Types {
			ins.Counts[tt][j] = rng.Intn(st.Count + 1)
			capacity += float64(ins.Counts[tt][j]) * st.MaxLoad
		}
		ins.Lambda[tt] *= capacity / full
	}
}

func TestLoadTrackingZeroDemandShutsDown(t *testing.T) {
	ins := smallInstance() // slot 4 has λ=0 and positive idle costs
	lt, _ := NewLoadTracking(ins.Types)
	sched := core.Run(lt, ins)
	if !sched[3].IsZero() {
		t.Errorf("slot 4 config %v, want all-off at zero demand", sched[3])
	}
}

func TestSkiRentalHoldsThenReleases(t *testing.T) {
	// One type, β=2, idle 1: surplus servers survive exactly two extra
	// slots (accumulated idle 2 not > 2) and drop on the third.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 2, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{2, 0, 0, 0, 0},
	}
	s, err := NewSkiRental(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.Run(s, ins)
	want := []int{2, 2, 2, 0, 0}
	for i := range want {
		if sched[i][0] != want[i] {
			t.Fatalf("trace %v, want %v", sched, want)
		}
	}
}

func TestSkiRentalFeasibleOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		ins := randomInstance(rng)
		s, err := NewSkiRental(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		sched := core.Run(s, ins)
		if err := ins.Feasible(sched); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestSkiRentalTimeVaryingClamp(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 3, SwitchCost: 100, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{3, 1, 1},
		Counts: [][]int{{3}, {1}, {3}},
	}
	s, _ := NewSkiRental(ins.Types)
	sched := core.Run(s, ins)
	if sched[1][0] != 1 {
		t.Errorf("slot 2 keeps %d servers, fleet only has 1", sched[1][0])
	}
	if err := ins.Feasible(sched); err != nil {
		t.Fatal(err)
	}
}

func TestLCPRequiresHomogeneous(t *testing.T) {
	if _, err := NewLCP(smallInstance().Types); err == nil {
		t.Error("d=2 should be rejected")
	}
}

func TestLCPFeasibleAndReasonable(t *testing.T) {
	ins := homogeneousInstance()
	l, err := NewLCP(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.Run(l, ins)
	if err := ins.Feasible(sched); err != nil {
		t.Fatal(err)
	}
	// The discrete LCP is 3-competitive on homogeneous instances
	// (Albers–Quedenfeld 2018); assert the bound empirically.
	cost := model.NewEvaluator(ins).Cost(sched).Total()
	opt, err := solver.OptimalCost(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.LessEqual(cost, 3*opt, 1e-9) {
		t.Errorf("LCP cost %g exceeds 3·OPT = %g", cost, 3*opt)
	}
}

func TestLCPLazyness(t *testing.T) {
	// Constant demand: after the initial ramp LCP should never move.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 4, SwitchCost: 5, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{2, 2, 2, 2, 2, 2},
	}
	l, _ := NewLCP(ins.Types)
	sched := core.Run(l, ins)
	for tt := 1; tt < len(sched); tt++ {
		if sched[tt][0] != sched[0][0] {
			t.Fatalf("LCP moved on constant demand: %v", sched)
		}
	}
}

func TestRecedingHorizonWindowValidation(t *testing.T) {
	if _, err := NewLookahead(smallInstance().Types, 0); err == nil {
		t.Error("w=0 should be rejected")
	}
}

func TestRecedingHorizonFullLookaheadIsOptimalPrefixWise(t *testing.T) {
	// With w >= T the first committed decision comes from an exact solve
	// of the entire remaining instance, so the total cost matches OPT.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		ins := randomInstance(rng)
		rh, err := NewLookahead(ins.Types, ins.T())
		if err != nil {
			t.Fatal(err)
		}
		sched := core.Run(rh, ins)
		cost := model.NewEvaluator(ins).Cost(sched).Total()
		opt, err := solver.OptimalCost(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(cost, opt, 1e-6) {
			t.Fatalf("case %d: full-lookahead MPC %g != OPT %g", i, cost, opt)
		}
	}
}

func TestRecedingHorizonImprovesWithWindow(t *testing.T) {
	ins := homogeneousInstance()
	eval := model.NewEvaluator(ins)
	costs := map[int]float64{}
	for _, w := range []int{1, 3, ins.T()} {
		rh, err := NewLookahead(ins.Types, w)
		if err != nil {
			t.Fatal(err)
		}
		sched := core.Run(rh, ins)
		if err := ins.Feasible(sched); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		costs[w] = eval.Cost(sched).Total()
	}
	if costs[ins.T()] > costs[1]*(1+1e-9) {
		t.Errorf("full lookahead (%g) should not lose to w=1 (%g)", costs[ins.T()], costs[1])
	}
}

func TestAllBaselinesOnHeterogeneousInstance(t *testing.T) {
	ins := smallInstance()
	allOn, _ := NewAllOn(ins.Types)
	lt, _ := NewLoadTracking(ins.Types)
	sr, _ := NewSkiRental(ins.Types)
	rh, _ := NewLookahead(ins.Types, 2)
	runAll(t, ins, allOn, lt, sr, rh)
}

// Lookahead is the only Buffered baseline: its decisions lag the input by
// w-1 slots and Flush drains the tail, reproducing the batch policy's
// shrinking end-of-horizon windows.
func TestLookaheadBuffersAndFlushes(t *testing.T) {
	ins := smallInstance()
	rh, err := NewLookahead(ins.Types, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got model.Schedule
	for ts := 1; ts <= ins.T(); ts++ {
		x := rh.Step(ins.Slot(ts))
		if ts < 3 {
			if x != nil {
				t.Fatalf("slot %d: decision before the window filled", ts)
			}
			continue
		}
		if x == nil {
			t.Fatalf("slot %d: expected a decision", ts)
		}
		got = append(got, x.Clone())
	}
	if rh.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", rh.Pending())
	}
	for _, x := range rh.Flush() {
		got = append(got, x.Clone())
	}
	if len(got) != ins.T() {
		t.Fatalf("decided %d slots, want %d", len(got), ins.T())
	}
	if err := ins.Feasible(got); err != nil {
		t.Fatal(err)
	}
	var _ core.Buffered = rh
}

func TestRandomizedTimeoutFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		ins := randomInstance(rng)
		alg, err := NewRandomizedTimeout(ins.Types, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		sched := core.Run(alg, ins)
		if err := ins.Feasible(sched); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestRandomizedTimeoutDeterministicPerSeed(t *testing.T) {
	ins := smallInstance()
	a, _ := NewRandomizedTimeout(ins.Types, 42)
	b, _ := NewRandomizedTimeout(smallInstance().Types, 42)
	sa := core.Run(a, ins)
	sb := core.Run(b, ins)
	for i := range sa {
		if !sa[i].Equal(sb[i]) {
			t.Fatal("same seed must reproduce the schedule")
		}
	}
}

// The randomized budgets are drawn from the same source, by the same
// formula and in the same order as before RandomizedTimeout became
// SkiRental's seeded variant: these schedules were recorded from the
// separate type, on the small instance and on the longer homogeneous
// one, where the three seeds part.
func TestRandomizedTimeoutPinnedDraws(t *testing.T) {
	want := map[int64][2]string{
		0: {"[(1, 0) (1, 1) (0, 1) (0, 0) (0, 1)]",
			"[(3) (4) (5) (5) (5) (5) (2) (2) (1) (2) (3) (4) (5) (5) (5) (5) (2) (1) (1) (2) (3) (4) (5) (5) (5) (3) (3) (1) (1) (2)]"},
		1: {"[(1, 0) (1, 1) (0, 1) (0, 1) (0, 1)]",
			"[(3) (4) (5) (5) (5) (5) (2) (2) (2) (2) (3) (4) (5) (5) (5) (5) (2) (2) (1) (2) (3) (4) (5) (5) (5) (3) (3) (3) (1) (2)]"},
		7: {"[(1, 0) (1, 1) (0, 1) (0, 0) (0, 1)]",
			"[(3) (4) (5) (5) (5) (5) (2) (2) (1) (2) (3) (4) (5) (5) (5) (3) (3) (3) (1) (2) (3) (4) (5) (5) (5) (5) (2) (1) (1) (2)]"},
	}
	for seed, w := range want {
		for k, ins := range []*model.Instance{smallInstance(), homogeneousInstance()} {
			r, err := NewRandomizedTimeout(ins.Types, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(core.Run(r, ins)); got != w[k] {
				t.Errorf("seed %d, instance %d: %s, want %s", seed, k, got, w[k])
			}
		}
	}
}

func TestRandomizedTimeoutBudgetDistribution(t *testing.T) {
	// The sampled budget must lie in [0, β]. With X = β·ln(1+(e−1)U),
	// E[X] = β·∫₀¹ ln(1+(e−1)u) du = β/(e−1) ≈ 0.582β.
	ins := smallInstance()
	r, _ := NewRandomizedTimeout(ins.Types, 7)
	const n = 20000
	beta := 3.0
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.budget(beta)
		if x < 0 || x > beta {
			t.Fatalf("sample %g outside [0, %g]", x, beta)
		}
		sum += x
	}
	mean := sum / n
	want := beta / (math.E - 1)
	if math.Abs(mean-want) > 0.03*beta {
		t.Errorf("sample mean %g, want ≈ %g", mean, want)
	}
	if r.budget(0) != 0 {
		t.Error("β=0 should sample 0")
	}
}

func TestRandomizedTimeoutReleasesEventually(t *testing.T) {
	// Surplus servers must be gone once accumulated idle cost exceeds β
	// (the sampled budget never exceeds β).
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 3, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{3, 0, 0, 0, 0, 0},
	}
	alg, _ := NewRandomizedTimeout(ins.Types, 1)
	sched := core.Run(alg, ins)
	if sched[0][0] != 3 {
		t.Fatalf("slot 1: %v", sched[0])
	}
	// After idle costs 1+1+1 > β = 2, the surplus must be released.
	if sched[3][0] != 0 {
		t.Errorf("slot 4 still has %d servers; budget <= β forces release by then", sched[3][0])
	}
}

func TestRandomizedTimeoutMeanBehaviour(t *testing.T) {
	// Averaged over seeds, the randomized policy should not be wildly
	// worse than the deterministic SkiRental on a bursty trace.
	ins := smallInstance()
	det, _ := NewSkiRental(smallInstance().Types)
	detCost := model.NewEvaluator(ins).Cost(core.Run(det, ins)).Total()
	sum := 0.0
	const seeds = 20
	for s := int64(0); s < seeds; s++ {
		alg, _ := NewRandomizedTimeout(smallInstance().Types, s)
		sum += model.NewEvaluator(ins).Cost(core.Run(alg, ins)).Total()
	}
	mean := sum / seeds
	if mean > detCost*1.6 {
		t.Errorf("randomized mean %g far above deterministic %g", mean, detCost)
	}
}

func randomInstance(rng *rand.Rand) *model.Instance {
	d := 1 + rng.Intn(2)
	T := 2 + rng.Intn(6)
	types := make([]model.ServerType, d)
	totalCap := 0.0
	for j := range types {
		count := 1 + rng.Intn(3)
		capacity := 0.5 + rng.Float64()*2
		types[j] = model.ServerType{
			Count:      count,
			SwitchCost: 0.5 + rng.Float64()*6,
			MaxLoad:    capacity,
			Cost: model.Static{F: costfn.Power{
				Idle: 0.1 + rng.Float64(),
				Coef: rng.Float64() * 2,
				Exp:  1 + rng.Float64()*2,
			}},
		}
		totalCap += float64(count) * capacity
	}
	lambda := make([]float64, T)
	for t := range lambda {
		lambda[t] = rng.Float64() * totalCap * 0.9
	}
	return &model.Instance{Types: types, Lambda: lambda}
}

// BenchmarkLoadTrackingT48 times 48-slot runs on memo misses: every
// iteration scales the diurnal demand by fresh noise in [0.9, 1.1), so
// no layer repeats one the memo holds.
func BenchmarkLoadTrackingT48(b *testing.B) {
	diurnal := workload.Diurnal(48, 2, 40, 24, 0)
	ins := &model.Instance{
		Types: []model.ServerType{
			{Count: 16, SwitchCost: 4, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Count: 8, SwitchCost: 10, MaxLoad: 4,
				Cost: model.Static{F: costfn.Power{Idle: 2, Coef: 1, Exp: 2}}},
		},
		Lambda: make([]float64, len(diurnal)),
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for t, l := range diurnal {
			ins.Lambda[t] = l * (0.9 + 0.2*rng.Float64())
		}
		lt, err := NewLoadTracking(ins.Types)
		if err != nil {
			b.Fatal(err)
		}
		core.Run(lt, ins)
	}
}
