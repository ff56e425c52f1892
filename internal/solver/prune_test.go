package solver

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/workload"
)

// unpruned makes the trackers built inside fn evaluate every cell.
func unpruned[T any](fn func() T) T {
	pruneOff = true
	defer func() { pruneOff = false }()
	return fn()
}

// memoless makes the layer evaluators built inside fn bypass the memo.
func memoless[T any](fn func() (T, error)) (T, error) {
	defer SetMemo(false)()
	return fn()
}

// randomFamily draws a cost function of every stock family, wrapped in
// Scaled now and then, plus the opaque one the tracker must not prune.
func randomFamily(rng *rand.Rand) costfn.Func {
	var f costfn.Func
	switch rng.Intn(8) {
	case 0:
		f = costfn.Constant{C: rng.Float64() * 3}
	case 1:
		f = costfn.Affine{Idle: rng.Float64() * 2, Rate: rng.Float64() * 3}
	case 2:
		f = costfn.Power{Idle: rng.Float64(), Coef: 0.1 + rng.Float64()*2, Exp: 2}
	case 3:
		f = costfn.Power{Idle: rng.Float64(), Coef: rng.Float64() * 2, Exp: 1 + rng.Float64()*2}
	case 4:
		f = costfn.Exponential{Idle: rng.Float64(), Amp: 0.05 + rng.Float64(), Rate: 0.1 + rng.Float64()}
	case 5:
		s1 := rng.Float64()
		s2 := s1 + rng.Float64()
		v0 := rng.Float64()
		f = costfn.MustPiecewiseLinear([]float64{0, 0.5, 1}, []float64{v0, v0 + s1*0.5, v0 + s1*0.5 + s2*0.5})
	case 6:
		f = opaqueFn{rate: 0.2 + rng.Float64()}
	default:
		f = costfn.Power{Idle: rng.Float64(), Coef: rng.Float64(), Exp: 1}
	}
	if rng.Intn(4) == 0 {
		f = costfn.Scaled{F: f, Factor: 0.25 + rng.Float64()*2}
	}
	return f
}

// randomPruneInstance draws a fleet of 1–3 types over every family with
// noisy demand and switching costs from 10⁻³ to 10⁴; with counts set,
// each slot's counts lie at or below the template's.
func randomPruneInstance(rng *rand.Rand, T int, counts bool) *model.Instance {
	d := 1 + rng.Intn(3)
	types := make([]model.ServerType, d)
	capacity := 0.0
	for j := range types {
		types[j] = model.ServerType{
			Count:      1 + rng.Intn(7),
			SwitchCost: rng.Float64() * math.Pow(10, float64(rng.Intn(8)-3)),
			MaxLoad:    0.5 + rng.Float64()*3,
			Cost:       model.Static{F: randomFamily(rng)},
		}
		capacity += float64(types[j].Count) * types[j].MaxLoad
	}
	ins := &model.Instance{Types: types, Lambda: make([]float64, T)}
	if counts {
		ins.Counts = make([][]int, T)
	}
	for t := range ins.Lambda {
		slotCap := capacity
		if counts {
			ins.Counts[t] = make([]int, d)
			slotCap = 0
			for j, st := range types {
				c := st.Count
				if rng.Intn(4) == 0 {
					c = rng.Intn(st.Count + 1)
				}
				ins.Counts[t][j] = c
				slotCap += float64(c) * st.MaxLoad
			}
		}
		ins.Lambda[t] = rng.Float64() * slotCap * 0.95
	}
	return ins
}

// comparePruned streams ins through a pruned and an unpruned tracker
// together and fails unless they agree bit for bit: the prefix optimum
// and its argmin, every cell the pruned layer keeps, and g_t on every
// cell. A cell it prunes must be strictly dominated in the unpruned
// layer. The pruned tracker reads and fills the layer memo when memo is
// set. It returns the pruned tracker's saved states, one per slot.
func comparePruned(t *testing.T, ins *model.Instance, opts Options, memo bool) [][]byte {
	t.Helper()
	restore := SetMemo(memo)
	pr, err := NewStreamTracker(ins.Types, opts)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	// The twin stays off the memo, so the pruned tracker's memo paths are
	// its own.
	full := unpruned(func() *PrefixTracker {
		p, err := memoless(func() (*PrefixTracker, error) { return NewStreamTracker(ins.Types, opts) })
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	var states [][]byte
	var in model.SlotInput
	x := make(model.Config, ins.D())
	y := make(model.Config, ins.D())
	for s := 1; s <= ins.T(); s++ {
		ins.SlotInto(s, &in)
		cp, vp, err := pr.Push(in)
		if err != nil {
			t.Fatal(err)
		}
		cf, vf, err := full.Push(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(vp) != math.Float64bits(vf) || !cp.Equal(cf) {
			t.Fatalf("slot %d: pruned (%v, %v) != unpruned (%v, %v)", pr.T(), cp, vp, cf, vf)
		}
		g := pr.Lattice()
		for i, v := range pr.layer {
			w := full.layer[i]
			g.Decode(i, x)
			if gp, gf := mustG(t, pr, x), mustG(t, full, x); math.Float64bits(gp) != math.Float64bits(gf) {
				t.Fatalf("slot %d x=%v: G pruned %v != unpruned %v", pr.T(), x, gp, gf)
			}
			if math.Float64bits(v) == math.Float64bits(w) {
				continue
			}
			if !math.IsInf(v, 1) {
				t.Fatalf("slot %d x=%v: surviving cell %v != unpruned %v", pr.T(), x, v, w)
			}
			dominated := false
			for k, u := range full.layer {
				g.Decode(k, y)
				if k != i && u+model.SwitchCostOf(ins.Types, y, x) < w {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("slot %d x=%v: pruned a cell (%v) no other cell dominates", pr.T(), x, w)
			}
		}
		states = append(states, pr.AppendState(nil))
	}
	return states
}

func mustG(t *testing.T, p *PrefixTracker, x model.Config) float64 {
	t.Helper()
	g, ok := p.G(x)
	if !ok {
		t.Fatalf("G(%v) declined an on-lattice cell", x)
	}
	return g
}

// doubled feeds every slot of ins twice in a row, as Algorithm C's
// sub-slots do: the memo admits the repeat, completing the partial
// layer the first evaluation left.
func doubled(ins *model.Instance) *model.Instance {
	out := &model.Instance{Types: ins.Types}
	for s, lambda := range ins.Lambda {
		out.Lambda = append(out.Lambda, lambda, lambda)
		if ins.Counts != nil {
			out.Counts = append(out.Counts, ins.Counts[s], ins.Counts[s])
		}
	}
	return out
}

// Pruning changes no decision, optimum, surviving cell or g_t, on random
// fleets of every cost family, static and time-varying, exact and
// γ-reduced, with the memo off, missing and hitting (also on a slot fed
// twice in a row) and over workers; and the pruned tracker's state
// bytes are the same whichever of those paths evaluated its layers.
func TestPrunedLayerMatchesUnpruned(t *testing.T) {
	swapGcache(t, gcacheShards, gcacheMaxFloats)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		ins := randomPruneInstance(rng, 24, trial%3 == 2)
		if trial%4 == 1 {
			ins = doubled(ins)
		}
		var want [][]byte
		for _, run := range []struct {
			opts Options
			memo bool
		}{{Options{}, false}, {Options{}, true}, {Options{}, true}, {Options{}, true}, {Options{Workers: 2}, false}, {Options{Workers: 2}, true}} {
			// Memo runs: the first misses, the second admits, the third hits.
			states := comparePruned(t, ins, run.opts, run.memo)
			if want == nil {
				want = states
				continue
			}
			for s := range want {
				if !bytes.Equal(states[s], want[s]) {
					t.Fatalf("trial %d %+v slot %d: tracker state differs across memo paths", trial, run, s+1)
				}
			}
		}
		comparePruned(t, ins, Options{Gamma: 1.5}, false)
	}
}

// thrice feeds the slots of ins three times over: a stream tracker on a
// fresh memo misses each memoisable layer on its first pass (pruning as
// it solves), evaluates it whole on the second (the memo admits it) and
// hits it on the third, but for a quarter of the third pass's slots,
// whose demand is scaled down so that they miss again.
func thrice(ins *model.Instance, rng *rand.Rand) *model.Instance {
	out := &model.Instance{Types: ins.Types}
	for pass := range 3 {
		for _, lambda := range ins.Lambda {
			if pass == 2 && rng.Intn(4) == 0 {
				lambda *= 0.8 + 0.2*rng.Float64()
			}
			out.Lambda = append(out.Lambda, lambda)
		}
		if ins.Counts != nil {
			out.Counts = append(out.Counts, ins.Counts...)
		}
	}
	return out
}

// compareDeferred streams thrice(ins) through a pruned tracker on the
// memo and a memo-off twin, which prunes every layer as it solves it.
// From its second pass on the memo-on tracker defers the prune pass of
// each repeating layer and relaxes the unpruned layer into the next
// step, be it a hit, a miss or a lattice change. Its state is read only at sparse random slots and at the end,
// where it must equal the twin's byte for byte; at every slot the
// optimum, its argmin, OptRange and g_t agree bit for bit, and a cell
// the two layers disagree on is one the tracker deferred and the twin
// pruned to +Inf. It returns how many deferred layers were relaxed
// without a state read between, and how many of those into a lattice of
// other counts.
func compareDeferred(t *testing.T, ins *model.Instance, opts Options, rng *rand.Rand) (relaxed, recounted int) {
	t.Helper()
	ins = thrice(ins, rng)
	pr, err := NewStreamTracker(ins.Types, opts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := memoless(func() (*PrefixTracker, error) { return NewStreamTracker(ins.Types, opts) })
	if err != nil {
		t.Fatal(err)
	}
	var in model.SlotInput
	x := make(model.Config, ins.D())
	for s := 1; s <= ins.T(); s++ {
		ins.SlotInto(s, &in)
		if pr.deferred {
			relaxed++
			if !slices.Equal(in.Counts, pr.curCounts) {
				recounted++
			}
		}
		cp, vp, err := pr.Push(in)
		if err != nil {
			t.Fatal(err)
		}
		ct, vt, err := twin.Push(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(vp) != math.Float64bits(vt) || !cp.Equal(ct) {
			t.Fatalf("slot %d: memo on (%v, %v) != memo off (%v, %v)", s, cp, vp, ct, vt)
		}
		lp, hp := pr.OptRange()
		lt, ht := twin.OptRange()
		if !lp.Equal(lt) || !hp.Equal(ht) {
			t.Fatalf("slot %d: OptRange memo on [%v, %v] != memo off [%v, %v]", s, lp, hp, lt, ht)
		}
		g := pr.Lattice()
		for i, v := range pr.layer {
			g.Decode(i, x)
			if gp, gt := mustG(t, pr, x), mustG(t, twin, x); math.Float64bits(gp) != math.Float64bits(gt) {
				t.Fatalf("slot %d x=%v: G memo on %v != memo off %v", s, x, gp, gt)
			}
			if w := twin.layer[i]; math.Float64bits(v) != math.Float64bits(w) && !(pr.deferred && math.IsInf(w, 1)) {
				t.Fatalf("slot %d x=%v: cell memo on %v != memo off %v (deferred %v)", s, x, v, w, pr.deferred)
			}
		}
		if s == ins.T() || rng.Intn(6) == 0 {
			if sp, st := pr.AppendState(nil), twin.AppendState(nil); !bytes.Equal(sp, st) {
				t.Fatalf("slot %d: state memo on differs from memo off", s)
			}
		}
	}
	return relaxed, recounted
}

// A deferred prune pass changes nothing a reader sees: a tracker on the
// memo, whose repeating layers are evaluated whole and pruned only when
// its state is read, agrees with a memo-off tracker bit for bit on
// random fleets of every cost family, static and time-varying, exact and
// γ-reduced, serial and over workers; deferred layers are relaxed into
// the next step, also into a lattice of other counts.
func TestDeferredPruneMatchesMemoOff(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	relaxed, recounted := 0, 0
	for trial := 0; trial < 30; trial++ {
		swapGcache(t, gcacheShards, gcacheMaxFloats) // every trial's first pass misses
		ins := randomPruneInstance(rng, 16, trial%2 == 1)
		r, c := compareDeferred(t, ins, []Options{{}, {Workers: 2}, {Gamma: 1.5}}[trial%3], rng)
		relaxed += r
		recounted += c
	}
	t.Logf("%d deferred layers relaxed unsettled, %d of them into other counts", relaxed, recounted)
	if relaxed == 0 || recounted == 0 {
		t.Fatalf("%d deferred layers relaxed unsettled, %d into other counts: want both > 0", relaxed, recounted)
	}
}

// FuzzPrunedLayer compares the pruned and the unpruned tracker bit for
// bit (comparePruned) on random fleets of every cost family, with random
// demands and counts; then, on a fresh memo, the tracker whose later
// passes over the slots hit the memo with a memo-off one
// (compareDeferred).
func FuzzPrunedLayer(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(6+seed), seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, slots uint8, counts bool) {
		ins := randomPruneInstance(rand.New(rand.NewSource(seed)), 1+int(slots%40), counts)
		comparePruned(t, ins, Options{}, false)
		swapGcache(t, gcacheShards, gcacheMaxFloats)
		compareDeferred(t, ins, Options{}, rand.New(rand.NewSource(seed)))
	})
}

// A memo-hit step runs no prune pass: replaying memo-hit slots without
// reading the state runs none, one AppendState then runs exactly one,
// for the last layer alone, and a second read runs none. The rebuild
// allocates nothing: it works in the relaxer's scratch.
func TestHitStepsDeferPrunePass(t *testing.T) {
	swapGcache(t, gcacheShards, gcacheMaxFloats)
	trace := workload.Diurnal(24, 3, 14, 24, 0)
	tr, err := NewStreamTracker(heterogeneousFleet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	push := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := tr.Push(model.SlotInput{Lambda: trace[i%len(trace)]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(2 * len(trace)) // the memo admits each layer
	const replayed = 200
	hits, misses := MemoStats()
	passes := tr.prunes
	push(replayed)
	if h, m := MemoStats(); h-hits != replayed || m != misses {
		t.Fatalf("replay: %d memo hits and %d misses, want %d and 0", h-hits, m-misses, replayed)
	}
	if n := tr.prunes - passes; n != 0 {
		t.Fatalf("%d memo-hit slots ran the prune pass %d times, want 0", replayed, n)
	}
	tr.AppendState(nil)
	tr.AppendState(nil)
	if n := tr.prunes - passes; n != 1 {
		t.Fatalf("two state reads after the replay ran the prune pass %d times, want 1", n)
	}
	dst := make([]byte, 0, 1<<12)
	if a := testing.AllocsPerRun(5, func() { push(1); tr.AppendState(dst) }); a != 0 {
		t.Fatalf("a memo-hit step and the state read that settles it allocate %v times, want 0", a)
	}
}

// predecessor's line walk picks the index a walk decoding every cell
// picks, its sums bit for bit, on full and reduced lattices of 1–3
// types whose layers hold +Inf cells and ties, towards on- and
// off-lattice configurations.
func TestPredecessorMatchesDecodeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(3)
		counts, betas := make([]int, d), make([]float64, d)
		axes := make([]grid.Axis, d)
		for j := range counts {
			counts[j] = rng.Intn(7)
			betas[j] = rng.Float64() * math.Pow(10, float64(rng.Intn(5)-2))
			axes[j] = grid.ReducedAxis(counts[j], 1.5)
		}
		g := grid.NewFull(counts)
		if trial%3 == 2 {
			g = grid.New(axes)
		}
		layer := make([]float64, g.Size())
		for i := range layer {
			switch rng.Intn(5) {
			case 0:
				layer[i] = math.Inf(1)
			case 1:
				layer[i] = float64(rng.Intn(3))
			default:
				layer[i] = rng.Float64() * 10
			}
		}
		next := make(model.Config, d)
		for j := range next {
			next[j] = rng.Intn(counts[j] + 2)
		}
		want, bVal := 0, math.Inf(1)
		x := make(model.Config, d)
		for i, c := range layer {
			g.Decode(i, x)
			for j, beta := range betas {
				if up := next[j] - x[j]; up > 0 {
					c += beta * float64(up)
				}
			}
			if c < bVal {
				bVal, want = c, i
			}
		}
		if got := predecessor(layer, g, betas, next, make(model.Config, d), make(model.Config, d)); got != want {
			t.Fatalf("trial %d (lattice %v, next %v): predecessor %d, decode walk %d", trial, counts, next, got, want)
		}
	}
}

// Solve's schedules, serial and over workers, with the memo on and off,
// are the unpruned ones.
func TestPrunedSolveMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		ins := randomPruneInstance(rng, 30, trial%2 == 1)
		for _, opts := range []Options{{}, {Workers: 2}, {Gamma: 2}} {
			var got [2]*Result // with the memo on, then off
			for i, memo := range []bool{true, false} {
				restore := SetMemo(memo)
				r, err := Solve(ins, opts)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				got[i] = r
			}
			want := unpruned(func() *Result {
				r, err := Solve(ins, opts)
				if err != nil {
					t.Fatal(err)
				}
				return r
			})
			for i, r := range got {
				if math.Float64bits(r.Cost()) != math.Float64bits(want.Cost()) {
					t.Fatalf("trial %d %+v run %d: cost %v != unpruned %v", trial, opts, i, r.Cost(), want.Cost())
				}
				for s := range want.Schedule {
					if !r.Schedule[s].Equal(want.Schedule[s]) {
						t.Fatalf("trial %d %+v run %d slot %d: schedule %v != unpruned %v", trial, opts, i, s+1, r.Schedule[s], want.Schedule[s])
					}
				}
			}
		}
	}
}

// A state written by an unpruned tracker, whose dominated cells hold
// finite values, restores into a pruned one that then continues bit for
// bit like the pruned tracker that never stopped: the tracker state
// version need not change.
func TestPrunedRestoresUnprunedState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		ins := randomPruneInstance(rng, 20, false)
		cut := 1 + rng.Intn(ins.T()-1)
		old := unpruned(func() *PrefixTracker {
			p, err := NewPrefixTracker(ins, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
		ref, _ := NewPrefixTracker(ins, Options{})
		for old.T() < cut {
			old.Advance()
			ref.Advance()
		}
		resumed, _ := NewPrefixTracker(ins, Options{})
		resumed.Seek(cut)
		if err := resumed.RestoreState(old.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		for !ref.Done() {
			cr, vr := ref.Advance()
			cs, vs := resumed.Advance()
			if math.Float64bits(vr) != math.Float64bits(vs) || !cr.Equal(cs) {
				t.Fatalf("trial %d slot %d: resumed (%v, %v) != uninterrupted (%v, %v)", trial, ref.T(), cs, vs, cr, vr)
			}
			if !bytes.Equal(ref.AppendState(nil), resumed.AppendState(nil)) {
				t.Fatalf("trial %d slot %d: resumed state differs", trial, ref.T())
			}
		}
	}
}

// heterogeneousFleet is the stock heterogeneous scenario's fleet: three
// server generations, a 308-cell lattice.
func heterogeneousFleet() []model.ServerType {
	return []model.ServerType{
		{Name: "gen1", Count: 10, SwitchCost: 1.5, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1.2}}},
		{Name: "gen2", Count: 6, SwitchCost: 4, MaxLoad: 2,
			Cost: model.Static{F: costfn.Affine{Idle: 1.5, Rate: 0.6}}},
		{Name: "gen3", Count: 3, SwitchCost: 11, MaxLoad: 4,
			Cost: model.Static{F: costfn.Power{Idle: 2.5, Coef: 0.3, Exp: 2}}},
	}
}

// On the heterogeneous fleet under fresh demand (a diurnal trace times
// 0.9+0.2U, so no layer repeats), the tracker solves at most 22% of the
// feasible cells it would otherwise solve (it read 18.4% when the bound
// was set).
func TestPrunedLayerSolvesFewCells(t *testing.T) {
	types := heterogeneousFleet()
	rng := rand.New(rand.NewSource(3))
	trace := workload.Clamp(workload.DiurnalNoisy(rng, 480, 3, 14, 24, 0.15), 30)
	tr, err := memoless(func() (*PrefixTracker, error) { return NewStreamTracker(types, Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	eval := model.NewEvaluator(&model.Instance{Types: types})
	g := grid.NewFull([]int{10, 6, 3})
	x := make(model.Config, len(types))
	feasible := 0
	for _, lambda := range trace {
		in := model.SlotInput{Lambda: lambda * (0.9 + 0.2*rng.Float64())}
		if _, _, err := tr.Push(in); err != nil {
			t.Fatal(err)
		}
		eval.Prepare(in)
		for i := 0; i < g.Size(); i++ {
			g.Decode(i, x)
			if !math.IsInf(eval.GPrepared(x), 1) {
				feasible++
			}
		}
	}
	share := float64(tr.le.solved) / float64(feasible)
	t.Logf("solved %d of %d feasible cells (%.1f%%) over %d slots", tr.le.solved, feasible, 100*share, len(trace))
	if share > 0.22 {
		t.Fatalf("the tracker solved %.1f%% of the feasible cells, want <= 22%%", 100*share)
	}
}

// freshSeed gives every benchmark run its own demand noise.
var freshSeed int64

// BenchmarkTrackerStep times one tracker step on the heterogeneous
// fleet, pruned and unpruned, with the memo on: under fresh demand
// (the trace times 0.9+0.2U, so every layer misses, as on a serving
// tier's noisy traffic) and under the bare trace, whose layers the memo
// holds after the first pass.
func BenchmarkTrackerStep(b *testing.B) {
	for _, fleet := range []string{"heterogeneous", "quickstart"} {
		types := heterogeneousFleet()
		trace := workload.Clamp(workload.DiurnalNoisy(rand.New(rand.NewSource(1)), 48, 3, 14, 24, 0.15), 30)
		if fleet == "quickstart" {
			types = []model.ServerType{
				{Name: "slow", Count: 8, SwitchCost: 3, MaxLoad: 1,
					Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
				{Name: "fast", Count: 3, SwitchCost: 12, MaxLoad: 4,
					Cost: model.Static{F: costfn.Power{Idle: 3, Coef: 0.4, Exp: 2}}},
			}
			trace = workload.Diurnal(48, 2, 16, 24, 0)
		}
		benchTrackerStep(b, fleet, types, trace)
	}
}

func benchTrackerStep(b *testing.B, fleet string, types []model.ServerType, trace []float64) {
	for _, demand := range []string{"fresh", "hit"} {
		for _, name := range []string{"pruned", "unpruned"} {
			b.Run(fleet+"/"+demand+"/"+name, func(b *testing.B) {
				pruneOff = name == "unpruned"
				defer func() { pruneOff = false }()
				tr, err := NewStreamTracker(types, Options{})
				if err != nil {
					b.Fatal(err)
				}
				freshSeed++
				rng := rand.New(rand.NewSource(freshSeed))
				noise := func() float64 { return 0.9 + 0.2*rng.Float64() }
				if demand == "hit" {
					noise = func() float64 { return 1 }
					for i := 0; i < 2*len(trace); i++ { // the memo admits each layer
						tr.Push(model.SlotInput{Lambda: trace[i%len(trace)]})
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := tr.Push(model.SlotInput{Lambda: trace[i%len(trace)] * noise()}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// boundFamily draws a cost function of every family nondecreasing
// admits: Constant, Affine, Power with exponents below 1, 1, 2 and above
// 2, Exponential and PiecewiseLinear, each wrapped in Scaled now and
// then.
func boundFamily(rng *rand.Rand) costfn.Func {
	idle := 2 * rng.Float64()
	var f costfn.Func
	switch rng.Intn(8) {
	case 0:
		f = costfn.Constant{C: idle}
	case 1:
		f = costfn.Affine{Idle: idle, Rate: 3 * rng.Float64()}
	case 2:
		f = costfn.Power{Idle: idle, Coef: 2 * rng.Float64(), Exp: rng.Float64()}
	case 3:
		f = costfn.Power{Idle: idle, Coef: 2 * rng.Float64(), Exp: 1}
	case 4:
		f = costfn.Power{Idle: idle, Coef: 2 * rng.Float64(), Exp: 2}
	case 5:
		f = costfn.Power{Idle: idle, Coef: 2 * rng.Float64(), Exp: 2 + 2*rng.Float64()}
	case 6:
		f = costfn.Exponential{Idle: idle, Amp: 0.05 + rng.Float64(), Rate: 0.1 + rng.Float64()}
	default:
		s1 := rng.Float64()
		s2 := s1 + rng.Float64()
		f = costfn.MustPiecewiseLinear([]float64{0, 0.5, 1}, []float64{idle, idle + s1*0.5, idle + s1*0.5 + s2*0.5})
	}
	if rng.Intn(4) == 0 {
		f = costfn.Scaled{F: f, Factor: 0.25 + 2*rng.Float64()}
	}
	return f
}

// The Lagrangian bound the prune pass tests cells with holds: for every
// family nondecreasing admits and every multiplier ν from 0 to far above
// every type's saturation multiplier σ_j = f_j'(zmax_j), L_ν(x) =
// ν·λ + Σ_j x_j·dualFloor(…, ν), less its margin, is at most the
// dispatch's g_t(x) on every cell of the lattice, feasible or not.
func TestDualBoundBelowG(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(3)
		types := make([]model.ServerType, d)
		fns := make([]costfn.Func, d)
		capacity, sigma := 0.0, 0.0
		for j := range types {
			fns[j] = boundFamily(rng)
			if !nondecreasing(fns[j]) {
				t.Fatalf("%v is not admitted", fns[j])
			}
			types[j] = model.ServerType{Count: rng.Intn(6), SwitchCost: 1, MaxLoad: 0.5 + 3*rng.Float64(), Cost: model.Static{F: fns[j]}}
			capacity += float64(types[j].Count) * types[j].MaxLoad
			df, _ := costfn.AsDifferentiable(fns[j])
			sigma = max(sigma, df.Deriv(types[j].MaxLoad))
		}
		in := model.SlotInput{Lambda: capacity * rng.Float64()}
		eval := model.NewEvaluator(&model.Instance{Types: types})
		eval.Prepare(in)
		counts := make([]int, d)
		for j, st := range types {
			counts[j] = st.Count
		}
		g := grid.NewFull(counts)
		x := make(model.Config, d)
		for _, nu := range []float64{0, 1e-3 * sigma, 0.5 * sigma, sigma, 2 * sigma, 10*sigma + 1, 1e6 * (sigma + 1)} {
			c := make([]float64, d)
			bound := nu * in.Lambda
			for j, st := range types {
				f0 := fns[j].Value(0)
				r, a := dualShape(fns[j])
				c[j] = dualFloor(f0, st.MaxLoad, r, a, nu)
				bound += float64(st.Count) * (math.Abs(f0) + nu*st.MaxLoad)
			}
			for i := 0; i < g.Size(); i++ {
				g.Decode(i, x)
				l := nu * in.Lambda
				for j, cj := range c {
					l += float64(x[j]) * cj
				}
				if gv := eval.GPrepared(x); l-pruneMargin*bound > gv {
					t.Fatalf("trial %d ν=%g x=%v: L_ν = %v exceeds g = %v (λ=%g, fns %v)", trial, nu, x, l, gv, in.Lambda, fns)
				}
				checked++
			}
		}
	}
	t.Logf("%d bounds checked", checked)
}
