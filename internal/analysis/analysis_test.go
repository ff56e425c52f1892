package analysis

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/solver"
)

func randomStatic(rng *rand.Rand, maxD, maxM, maxT int) *model.Instance {
	d := 1 + rng.Intn(maxD)
	T := 2 + rng.Intn(maxT)
	types := make([]model.ServerType, d)
	totalCap := 0.0
	for j := range types {
		count := 1 + rng.Intn(maxM)
		capacity := 0.5 + rng.Float64()*2
		var f costfn.Func
		switch rng.Intn(3) {
		case 0:
			f = costfn.Constant{C: 0.2 + rng.Float64()*2}
		case 1:
			f = costfn.Affine{Idle: 0.2 + rng.Float64(), Rate: rng.Float64() * 2}
		default:
			f = costfn.Power{Idle: 0.2 + rng.Float64(), Coef: 0.2 + rng.Float64(), Exp: 1 + rng.Float64()*2}
		}
		types[j] = model.ServerType{
			Count: count, SwitchCost: 0.5 + rng.Float64()*6, MaxLoad: capacity,
			Cost: model.Static{F: f},
		}
		totalCap += float64(count) * capacity
	}
	lambda := make([]float64, T)
	for t := range lambda {
		lambda[t] = rng.Float64() * totalCap * 0.85
	}
	return &model.Instance{Types: types, Lambda: lambda}
}

// The decomposition must reassemble to the evaluator's total cost exactly.
func TestDecomposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		ins := randomStatic(rng, 3, 3, 8)
		res, err := solver.SolveOptimal(ins)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Decompose(ins, res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Cost()
		if !numeric.AlmostEqual(p.Total(), want, 1e-9) {
			t.Fatalf("case %d: decomposition %g != cost %g", i, p.Total(), want)
		}
		if p.LoadDependent < -1e-9 || p.Idle < -1e-9 {
			t.Fatalf("case %d: negative parts %+v", i, p)
		}
		if !numeric.AlmostEqual(p.Switching, res.Breakdown.Switching, 1e-9) {
			t.Fatalf("case %d: switching part mismatch", i)
		}
	}
}

func TestDecomposeRejectsInfeasible(t *testing.T) {
	ins := randomStatic(rand.New(rand.NewSource(2)), 1, 2, 3)
	bad := make(model.Schedule, ins.T())
	for i := range bad {
		bad[i] = make(model.Config, ins.D()) // all zeros
	}
	if _, err := Decompose(ins, bad); err == nil {
		t.Error("expected feasibility error")
	}
}

// Lemma 5: the load-dependent cost of Algorithm A's schedule is at most
// the optimal total cost.
func TestLemma5LoadDependentBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		ins := randomStatic(rng, 2, 3, 8)
		a, err := core.NewAlgorithmA(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		sched := core.Run(a, ins)
		p, err := Decompose(ins, sched)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := solver.OptimalCost(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.LessEqual(p.LoadDependent, opt, 1e-6) {
			t.Fatalf("case %d: Lemma 5 violated: L = %g > OPT = %g", i, p.LoadDependent, opt)
		}
	}
}

// Lemma 7: per type, the block costs Σ_i H_{j,i} are at most 2·OPT, and
// they upper-bound Algorithm A's actual idle+switching spending.
func TestLemma7BlockBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		ins := randomStatic(rng, 2, 3, 8)
		a, err := core.NewAlgorithmA(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		sched := core.Run(a, ins)
		tbars := make([]int, ins.D())
		for j := range tbars {
			tbars[j] = a.Timeout(j)
		}
		hs, err := BlockCostsA(ins, sched, tbars)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := solver.OptimalCost(ins)
		if err != nil {
			t.Fatal(err)
		}
		for j, h := range hs {
			if !numeric.LessEqual(h, 2*opt, 1e-6) {
				t.Fatalf("case %d type %d: Lemma 7 violated: ΣH = %g > 2·OPT = %g",
					i, j, h, 2*opt)
			}
		}
		// The H terms plus load-dependent cost upper-bound the actual
		// total (Theorem 8's assembly).
		p, err := Decompose(ins, sched)
		if err != nil {
			t.Fatal(err)
		}
		sumH := 0.0
		for _, h := range hs {
			sumH += h
		}
		if !numeric.LessEqual(p.Total(), sumH+p.LoadDependent, 1e-6) {
			t.Fatalf("case %d: C(X^A) = %g exceeds ΣH + L = %g",
				i, p.Total(), sumH+p.LoadDependent)
		}
	}
}

// Lemma 4: per slot and type, Algorithm A's load-dependent cost is at
// most the prefix optimum's — under a COMMON load split (the prefix
// optimum's dispatch), which is the reading the proof's Jensen step uses.
// The test also documents that the naive reading (each config under its
// own optimal split) fails, which is why LoadDependentWithVolumes exists.
func TestLemma4PerSlotDomination(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eachOwnSplitViolated := false
	for i := 0; i < 20; i++ {
		ins := randomStatic(rng, 2, 3, 6)
		a, err := core.NewAlgorithmA(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		eval := model.NewEvaluator(ins)
		for tt := 1; tt <= ins.T(); tt++ {
			x := a.Step(ins.Slot(tt)).Clone()
			xhat := a.PrefixOpt()
			y := eval.Split(tt, xhat).Y // common split: x̂'s optimal dispatch
			la := LoadDependentWithVolumes(ins, tt, x, y)
			lh := LoadDependentWithVolumes(ins, tt, xhat, y)
			for j := range la {
				if !numeric.LessEqual(la[j], lh[j], 1e-6) {
					t.Fatalf("case %d slot %d type %d: L(X^A)=%g > L(X̂)=%g under common split",
						i, tt, j, la[j], lh[j])
				}
			}
			// Naive reading (own splits): record violations; they are
			// expected to occur and motivate the common-split API.
			laOwn := LoadDependentPerSlot(ins, tt, x)
			lhOwn := LoadDependentPerSlot(ins, tt, xhat)
			for j := range laOwn {
				if laOwn[j] > lhOwn[j]+1e-9 {
					eachOwnSplitViolated = true
				}
			}
		}
	}
	if !eachOwnSplitViolated {
		t.Log("note: no own-split violation sampled this run (seed-dependent)")
	}
}

func TestBlockCostsAValidation(t *testing.T) {
	ins := randomStatic(rand.New(rand.NewSource(6)), 1, 2, 3)
	if _, err := BlockCostsA(ins, nil, nil); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBlockCostsInfiniteTimeoutClamped(t *testing.T) {
	// Zero idle cost: t̄ is effectively infinite; block spans clamp to the
	// horizon and H reduces to β per power-up.
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 5, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 0, Rate: 1}},
		}},
		Lambda: []float64{1, 1, 1},
	}
	a, err := core.NewAlgorithmA(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := BlockCostsA(ins, core.Run(a, ins), []int{a.Timeout(0)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hs[0]-5) > 1e-12 {
		t.Errorf("H = %g, want 5 (single power-up, zero idle)", hs[0])
	}
}

// PowerUpsA reads Algorithm A's power-ups off its schedule on a static
// fleet and refuses what it cannot read them from: a fleet whose counts
// vary (a clamp powers servers down early) and a schedule that drops
// servers before their t̄ slots are up.
func TestPowerUpsA(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{Count: 3, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}}},
		Lambda: []float64{2, 3, 0, 0, 1},
	}
	a, err := core.NewAlgorithmA(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.Run(a, ins)
	w, err := PowerUpsA(ins, sched, []int{a.Timeout(0)})
	if err != nil {
		t.Fatal(err)
	}
	// t̄ = 2: 2 up at slot 1, 1 more at 2; slot 3 keeps only slot 2's,
	// and slot 5 powers one up again.
	if want := []int{2, 1, 0, 0, 1}; !slices.Equal(w[0], want) {
		t.Fatalf("schedule %v: power-ups %v, want %v", sched, w[0], want)
	}
	if _, err := PowerUpsA(ins, model.Schedule{{2}, {0}, {0}, {0}, {0}}, []int{2}); err == nil {
		t.Error("a schedule dropping servers before t̄ was read")
	}
	varying := *ins
	varying.Counts = [][]int{{3}, {3}, {3}, {3}, {3}}
	if _, err := PowerUpsA(&varying, sched, []int{2}); err == nil {
		t.Error("a time-varying fleet was read")
	}
}
