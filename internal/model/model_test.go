package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/costfn"
	"repro/internal/dispatch"
)

// twoTypeInstance is a small heterogeneous instance used across tests:
// type 0 "slow" (cap 1), type 1 "fast" (cap 4), as in the paper's intro.
func twoTypeInstance() *Instance {
	return &Instance{
		Types: []ServerType{
			{Name: "slow", Count: 3, SwitchCost: 2, MaxLoad: 1,
				Cost: Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Name: "fast", Count: 2, SwitchCost: 8, MaxLoad: 4,
				Cost: Static{F: costfn.Affine{Idle: 3, Rate: 0.5}}},
		},
		Lambda: []float64{1, 4, 2, 0},
	}
}

func TestInstanceBasics(t *testing.T) {
	ins := twoTypeInstance()
	if ins.T() != 4 || ins.D() != 2 {
		t.Fatalf("T=%d D=%d, want 4, 2", ins.T(), ins.D())
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !ins.TimeIndependent() {
		t.Error("static profiles should be time-independent")
	}
	if ins.TimeVarying() {
		t.Error("no Counts: not time-varying")
	}
	if ins.CountAt(1, 0) != 3 || ins.CountAt(4, 1) != 2 {
		t.Error("CountAt should return static counts")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"no types", func(i *Instance) { i.Types = nil }},
		{"no slots", func(i *Instance) { i.Lambda = nil }},
		{"negative count", func(i *Instance) { i.Types[0].Count = -1 }},
		{"negative beta", func(i *Instance) { i.Types[0].SwitchCost = -1 }},
		{"zero capacity", func(i *Instance) { i.Types[0].MaxLoad = 0 }},
		{"nil profile", func(i *Instance) { i.Types[0].Cost = nil }},
		{"negative lambda", func(i *Instance) { i.Lambda[0] = -1 }},
		{"excess demand", func(i *Instance) { i.Lambda[0] = 100 }},
		{"bad counts length", func(i *Instance) { i.Counts = [][]int{{1, 1}} }},
		{"bad counts width", func(i *Instance) {
			i.Counts = [][]int{{1}, {1}, {1}, {1}}
		}},
		{"negative varying count", func(i *Instance) {
			i.Counts = [][]int{{3, 2}, {3, 2}, {-1, 2}, {3, 2}}
		}},
		{"varying capacity shortfall", func(i *Instance) {
			i.Counts = [][]int{{3, 2}, {0, 0}, {3, 2}, {3, 2}}
		}},
	}
	for _, c := range cases {
		ins := twoTypeInstance()
		c.mutate(ins)
		if err := ins.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestPrefix(t *testing.T) {
	ins := twoTypeInstance()
	p := ins.Prefix(2)
	if p.T() != 2 || p.D() != 2 {
		t.Fatalf("prefix T=%d D=%d", p.T(), p.D())
	}
	if p.Lambda[1] != 4 {
		t.Error("prefix should share job volumes")
	}
	if ins.Prefix(0).T() != 0 {
		t.Error("empty prefix should have no slots")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range prefix should panic")
		}
	}()
	ins.Prefix(5)
}

func TestPrefixTimeVarying(t *testing.T) {
	ins := twoTypeInstance()
	ins.Counts = [][]int{{3, 2}, {2, 2}, {3, 1}, {3, 2}}
	p := ins.Prefix(3)
	if !p.TimeVarying() || p.CountAt(3, 1) != 1 {
		t.Error("prefix should keep time-varying counts")
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{1, 2, 0}
	if c.Total() != 3 {
		t.Error("Total")
	}
	if c.IsZero() {
		t.Error("IsZero on non-zero config")
	}
	if !(Config{0, 0}).IsZero() {
		t.Error("IsZero on zero config")
	}
	d := c.Clone()
	d[0] = 9
	if c[0] == 9 {
		t.Error("Clone should not share storage")
	}
	if !c.Equal(Config{1, 2, 0}) || c.Equal(Config{1, 2}) || c.Equal(Config{1, 2, 1}) {
		t.Error("Equal misbehaves")
	}
	if got := c.String(); got != "(1, 2, 0)" {
		t.Errorf("String = %q", got)
	}
}

func TestEvaluatorOperatingCost(t *testing.T) {
	ins := twoTypeInstance()
	e := NewEvaluator(ins)
	// Slot 4 has λ=0: idle costs only.
	if got := e.G(4, Config{2, 1}); math.Abs(got-(2*1+3)) > 1e-9 {
		t.Errorf("idle-only cost = %g, want 5", got)
	}
	// Slot 1, λ=1: one slow server suffices; cost 1 idle + 1 load.
	if got := e.G(1, Config{1, 0}); math.Abs(got-2) > 1e-9 {
		t.Errorf("G = %g, want 2", got)
	}
	// Infeasible: zero servers for positive demand.
	if got := e.G(1, Config{0, 0}); !math.IsInf(got, 1) {
		t.Errorf("G = %g, want +Inf", got)
	}
	// Over-count is +Inf (vertex not in the graph).
	if got := e.G(1, Config{4, 0}); !math.IsInf(got, 1) {
		t.Errorf("over-count G = %g, want +Inf", got)
	}
	// Negative count is +Inf as well.
	if got := e.G(1, Config{-1, 1}); !math.IsInf(got, 1) {
		t.Errorf("negative count G = %g, want +Inf", got)
	}
}

func TestEvaluatorSplit(t *testing.T) {
	ins := twoTypeInstance()
	e := NewEvaluator(ins)
	a := e.Split(2, Config{3, 1}) // λ=4
	sum := 0.0
	for _, y := range a.Y {
		sum += y
	}
	if math.Abs(sum-4) > 1e-6 {
		t.Errorf("split volumes sum to %g, want 4", sum)
	}
	// The fast type has the lower marginal rate (0.5 < 1): it should
	// absorb everything (capacity 4 suffices).
	if math.Abs(a.Y[1]-4) > 1e-6 {
		t.Errorf("fast-type volume = %g, want 4", a.Y[1])
	}
	bad := e.Split(1, Config{9, 9})
	if !math.IsInf(bad.Cost, 1) {
		t.Error("invalid config should cost +Inf")
	}
}

func TestSwitchCost(t *testing.T) {
	ins := twoTypeInstance()
	if got := ins.SwitchCost(Config{0, 0}, Config{2, 1}); got != 2*2+8 {
		t.Errorf("switch cost = %g, want 12", got)
	}
	if got := ins.SwitchCost(Config{2, 1}, Config{1, 0}); got != 0 {
		t.Errorf("power-down cost = %g, want 0", got)
	}
	if got := ins.SwitchCost(Config{1, 0}, Config{0, 2}); got != 16 {
		t.Errorf("mixed move = %g, want 16", got)
	}
}

func TestScheduleCost(t *testing.T) {
	ins := twoTypeInstance()
	e := NewEvaluator(ins)
	s := Schedule{
		Config{1, 0}, // λ=1 on one slow server: 1+1 = 2; switch 2
		Config{0, 1}, // λ=4 on one fast: 3+2 = 5; switch 8
		Config{0, 1}, // λ=2 on one fast: 3+1 = 4
		Config{0, 0}, // λ=0, nothing active
	}
	br := e.Cost(s)
	if math.Abs(br.Operating-(2+5+4)) > 1e-9 {
		t.Errorf("operating = %g, want 11", br.Operating)
	}
	if math.Abs(br.Switching-(2+8)) > 1e-9 {
		t.Errorf("switching = %g, want 10", br.Switching)
	}
	if math.Abs(br.Total()-21) > 1e-9 {
		t.Errorf("total = %g, want 21", br.Total())
	}
}

func TestFeasible(t *testing.T) {
	ins := twoTypeInstance()
	good := Schedule{{1, 0}, {0, 1}, {2, 0}, {0, 0}}
	if err := ins.Feasible(good); err != nil {
		t.Errorf("good schedule rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Schedule
	}{
		{"wrong length", Schedule{{1, 0}}},
		{"wrong width", Schedule{{1}, {0, 1}, {2, 0}, {0, 0}}},
		{"negative", Schedule{{-1, 1}, {0, 1}, {2, 0}, {0, 0}}},
		{"over count", Schedule{{4, 0}, {0, 1}, {2, 0}, {0, 0}}},
		{"under capacity", Schedule{{1, 0}, {3, 0}, {2, 0}, {0, 0}}},
	}
	for _, c := range cases {
		if err := ins.Feasible(c.s); err == nil {
			t.Errorf("%s: expected feasibility error", c.name)
		}
	}
}

func TestFeasibleTimeVarying(t *testing.T) {
	ins := twoTypeInstance()
	ins.Counts = [][]int{{3, 2}, {3, 2}, {1, 2}, {3, 2}}
	bad := Schedule{{1, 0}, {0, 1}, {2, 0}, {0, 0}} // slot 3 allows only 1 slow
	if err := ins.Feasible(bad); err == nil {
		t.Error("expected violation of time-varying count")
	}
	if !strings.Contains(ins.Feasible(bad).Error(), "slot 3") {
		t.Error("error should pinpoint slot 3")
	}
}

func TestCostProfiles(t *testing.T) {
	static := Static{F: costfn.Constant{C: 2}}
	if static.At(1).Value(0) != 2 || static.At(99).Value(0) != 2 {
		t.Error("Static should ignore t")
	}
	varying := Varying{Fs: []costfn.Func{costfn.Constant{C: 1}, costfn.Constant{C: 5}}}
	if varying.At(1).Value(0) != 1 || varying.At(2).Value(0) != 5 {
		t.Error("Varying should index by slot")
	}
	mod := Modulated{F: costfn.Affine{Idle: 2, Rate: 1}, Scale: []float64{1, 0.5}}
	if mod.At(2).Value(0) != 1 {
		t.Errorf("Modulated idle at t=2 = %g, want 1", mod.At(2).Value(0))
	}
}

func TestEvaluatorCostMatchesManualSum(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ins := randomInstance(rng, 3, 4, 6)
		e := NewEvaluator(ins)
		s := randomFeasibleSchedule(rng, ins)
		br := e.Cost(s)
		// Manual recomputation.
		op, sw := 0.0, 0.0
		prev := make(Config, ins.D())
		for t := 1; t <= ins.T(); t++ {
			op += e.G(t, s[t-1])
			sw += ins.SwitchCost(prev, s[t-1])
			prev = s[t-1]
		}
		return math.Abs(br.Operating-op) < 1e-9*(1+op) &&
			math.Abs(br.Switching-sw) < 1e-9*(1+sw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomInstance builds a feasible random instance with d <= maxD types,
// T <= maxT slots, counts <= maxM.
func randomInstance(rng *rand.Rand, maxD, maxM, maxT int) *Instance {
	d := 1 + rng.Intn(maxD)
	T := 1 + rng.Intn(maxT)
	types := make([]ServerType, d)
	totalCap := 0.0
	for j := range types {
		count := 1 + rng.Intn(maxM)
		cap := 0.5 + rng.Float64()*2
		var f costfn.Func
		switch rng.Intn(3) {
		case 0:
			f = costfn.Constant{C: rng.Float64() * 3}
		case 1:
			f = costfn.Affine{Idle: rng.Float64() * 2, Rate: rng.Float64() * 3}
		default:
			f = costfn.Power{Idle: rng.Float64(), Coef: 0.1 + rng.Float64()*2, Exp: 1 + rng.Float64()*2}
		}
		types[j] = ServerType{
			Name:       "t",
			Count:      count,
			SwitchCost: rng.Float64() * 10,
			MaxLoad:    cap,
			Cost:       Static{F: f},
		}
		totalCap += float64(count) * cap
	}
	lambda := make([]float64, T)
	for t := range lambda {
		lambda[t] = rng.Float64() * totalCap * 0.9
	}
	return &Instance{Types: types, Lambda: lambda}
}

// randomFeasibleSchedule draws random configurations and repairs them to
// meet each slot's demand by raising counts greedily.
func randomFeasibleSchedule(rng *rand.Rand, ins *Instance) Schedule {
	s := make(Schedule, ins.T())
	for t := 1; t <= ins.T(); t++ {
		x := make(Config, ins.D())
		for j := range x {
			x[j] = rng.Intn(ins.CountAt(t, j) + 1)
		}
		for cap := capOf(ins, x); cap < ins.Lambda[t-1]; cap = capOf(ins, x) {
			j := rng.Intn(ins.D())
			if x[j] < ins.CountAt(t, j) {
				x[j]++
			}
		}
		s[t-1] = x
	}
	return s
}

func capOf(ins *Instance, x Config) float64 {
	cap := 0.0
	for j := range x {
		cap += float64(x[j]) * ins.Types[j].MaxLoad
	}
	return cap
}

func TestEvaluatorPanicsOnDimensionMismatch(t *testing.T) {
	e := NewEvaluator(twoTypeInstance())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.G(1, Config{1})
}

func TestCostPanicsOnLengthMismatch(t *testing.T) {
	e := NewEvaluator(twoTypeInstance())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Cost(Schedule{{1, 0}})
}

func TestScheduleClone(t *testing.T) {
	s := Schedule{{1, 0}, {2, 1}}
	c := s.Clone()
	c[0][0] = 9
	if s[0][0] == 9 {
		t.Error("Clone should deep-copy")
	}
}

// Non-finite demand is rejected by batch validation and by the streaming
// slot check alike. NaN slips past both ordered comparisons (negative
// demand, demand above capacity), so it needs its own check; +Inf gets
// the same message instead of a capacity complaint.
func TestNonFiniteDemandRejected(t *testing.T) {
	for _, lambda := range []float64{math.NaN(), math.Inf(1)} {
		ins := twoTypeInstance()
		ins.Lambda[1] = lambda
		if err := ins.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("Validate with demand %v: err = %v, want a non-finite demand error", lambda, err)
		}
		err := CheckSlot(ins.Types, 1, SlotInput{Lambda: lambda})
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("CheckSlot(%v): err = %v, want a non-finite demand error", lambda, err)
		}
	}
}

// A slot's count may not exceed its type's template Count, the paper's
// m_j = max_t m_{t,j} (Section 4.3): instance validation and the slot
// check refuse it as a bad slot, and take the template's own counts.
func TestCheckSlotRefusesCountAboveTemplate(t *testing.T) {
	ins := twoTypeInstance()
	ins.Counts = [][]int{{3, 2}, {2, 2}, {4, 2}, {3, 1}}
	if err := ins.Validate(); err == nil || !strings.Contains(err.Error(), "above the fleet's 3") {
		t.Fatalf("slot 3 with 4 servers of a 3-server type validated: %v", err)
	}
	if err := CheckSlot(ins.Types, 1, SlotInput{Lambda: 1, Counts: []int{3, 3}}); err == nil {
		t.Fatal("the slot check took 3 servers of a 2-server type")
	}
	if err := CheckSlot(ins.Types, 1, SlotInput{Lambda: 1, Counts: []int{3, 2}}); err != nil {
		t.Fatalf("the slot check refused the template's own counts: %v", err)
	}
}

// ResolveSlot resolves omitted costs at the slot index it is given, not
// at in.T, and copies a resolved slot as it is; Instance.SlotInto is it
// over the instance's own slot.
func TestResolveSlotAtGivenIndex(t *testing.T) {
	fs := []costfn.Func{costfn.Constant{C: 1}, costfn.Constant{C: 2}, costfn.Constant{C: 3}}
	types := []ServerType{{Count: 2, SwitchCost: 1, MaxLoad: 1, Cost: Varying{Fs: fs}}}
	var dst SlotInput
	ResolveSlot(types, 3, SlotInput{Lambda: 1.5}, &dst)
	if dst.T != 3 || dst.Lambda != 1.5 || dst.Costs[0] != fs[2] || dst.Counts[0] != 2 {
		t.Fatalf("ResolveSlot at 3 = %+v", dst)
	}
	var cp SlotInput
	ResolveSlot(types, 2, dst, &cp)
	if cp.T != 2 || cp.Costs[0] != fs[2] {
		t.Fatalf("a resolved slot resolved again: %+v", cp)
	}
	ins := &Instance{Types: types, Lambda: []float64{1, 1, 1}, Counts: [][]int{{2}, {1}, {2}}}
	ins.SlotInto(2, &dst)
	if dst.T != 2 || dst.Costs[0] != fs[1] || dst.Counts[0] != 1 {
		t.Fatalf("SlotInto(2) = %+v", dst)
	}
}

// Evaluator.Dual passes the dispatch solver's ν* through for the
// configuration GPrepared solved last, and is NaN for one outside the
// slot's counts, whose program it never solves.
func TestEvaluatorDual(t *testing.T) {
	ins := &Instance{Types: []ServerType{
		{Count: 4, SwitchCost: 1, MaxLoad: 1, Cost: Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
		{Count: 2, SwitchCost: 1, MaxLoad: 2, Cost: Static{F: costfn.Power{Idle: 1, Coef: 0.5, Exp: 2}}},
	}, Lambda: []float64{3}}
	e := NewEvaluator(ins)
	e.PrepareSlot(1)
	e.GPrepared(Config{3, 2})
	var sv dispatch.Solver
	sv.Cost([]dispatch.Server{
		{Active: 3, Cap: 1, F: costfn.Affine{Idle: 1, Rate: 1}},
		{Active: 2, Cap: 2, F: costfn.Power{Idle: 1, Coef: 0.5, Exp: 2}},
	}, 3)
	if got, want := e.Dual(), sv.Dual(); math.IsNaN(want) || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Dual = %v, dispatch's ν* = %v", got, want)
	}
	e.GPrepared(Config{5, 2})
	if nu := e.Dual(); !math.IsNaN(nu) {
		t.Fatalf("Dual after a configuration outside the counts = %v, want NaN", nu)
	}
}
