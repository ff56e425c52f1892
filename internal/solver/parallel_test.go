package solver

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/workload"
)

// Determinism contract: the parallel layer evaluation must produce
// bit-identical results to the serial one for any worker count.
func TestSolveParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 20; i++ {
		ins := randomInstance(rng, 3, 4, 8)
		serial, err := Solve(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, AutoWorkers} {
			par, err := Solve(ins, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Cost() != serial.Cost() {
				t.Fatalf("case %d workers=%d: parallel %v != serial %v (must be bit-identical)",
					i, workers, par.Cost(), serial.Cost())
			}
			for tt := range serial.Schedule {
				if !par.Schedule[tt].Equal(serial.Schedule[tt]) {
					t.Fatalf("case %d workers=%d slot %d: schedules diverge", i, workers, tt+1)
				}
			}
		}
	}
}

func TestPrefixTrackerParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 10; i++ {
		ins := randomInstance(rng, 2, 5, 8)
		a, err := NewPrefixTracker(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewPrefixTracker(ins, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for !a.Done() {
			xa, va := a.Advance()
			xb, vb := b.Advance()
			if va != vb || !xa.Equal(xb) {
				t.Fatalf("case %d t=%d: parallel tracker diverged", i, a.T())
			}
		}
	}
}

// slotEvaluator builds a layer evaluator over ins's fleet that evaluates
// ins's slot t.
func slotEvaluator(ins *model.Instance, t int, opts Options) *layerEvaluator {
	in := ins.Slot(t)
	return newLayerEvaluator(ins.Types, &in, opts)
}

func TestLayerEvaluatorSmallLayerStaysSerial(t *testing.T) {
	// Layers smaller than 2× the worker count skip the fan-out; this just
	// exercises the code path.
	ins := randomInstance(rand.New(rand.NewSource(83)), 1, 1, 2)
	defer SetMemo(false)() // each evaluator solves its own layer
	g := fullGrid(ins)
	layer := slotEvaluator(ins, 1, Options{Workers: 8}).begin(g.Size(), g, true)
	layer2 := slotEvaluator(ins, 1, Options{Workers: 1}).begin(g.Size(), g, true)
	for i := range layer {
		if layer[i] != layer2[i] {
			t.Fatal("small-layer path diverged from serial")
		}
	}
}

func TestAutoWorkersResolves(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(84)), 2, 3, 3)
	le := slotEvaluator(ins, 1, Options{Workers: AutoWorkers})
	if le.workers != runtime.GOMAXPROCS(0) {
		t.Errorf("AutoWorkers resolved to %d, want GOMAXPROCS %d", le.workers, runtime.GOMAXPROCS(0))
	}
	if slotEvaluator(ins, 1, Options{}).workers != 1 {
		t.Error("0 workers should clamp to 1")
	}
}

// Ablation benchmark: parallel speedup on a large lattice where the
// dispatch programs dominate.
func parallelBenchInstance() *model.Instance {
	m := 40
	return &model.Instance{
		Types: []model.ServerType{
			{Count: m, SwitchCost: 4, MaxLoad: 1,
				Cost: model.Static{F: costfn.Power{Idle: 1, Coef: 1, Exp: 2.3}}},
			{Count: m / 2, SwitchCost: 10, MaxLoad: 4,
				Cost: model.Static{F: costfn.Power{Idle: 2, Coef: 0.7, Exp: 1.8}}},
		},
		Lambda: workload.Diurnal(24, 2, float64(m), 24, 0),
	}
}

// benchSolveFresh times one Solve per op on a fresh layer memo, as a
// one-shot CLI solve sees it: with a warm memo every layer after the
// first op would be a hit and the fan-out would have nothing to do.
func benchSolveFresh(b *testing.B, opts Options) {
	ins := parallelBenchInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore := FreshMemo()
		b.StartTimer()
		if _, err := Solve(ins, opts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		restore()
		b.StartTimer()
	}
}

func BenchmarkSolveSerial(b *testing.B) { benchSolveFresh(b, Options{}) }

func BenchmarkSolveParallelAuto(b *testing.B) { benchSolveFresh(b, Options{Workers: AutoWorkers}) }

// A tracker's fan-out goroutines live for one layer: between pushes of a
// Workers: 4 stream tracker that is still reachable, the process runs
// as many goroutines as before the tracker was built.
func TestFanOutGoroutinesEndWithTheLayer(t *testing.T) {
	defer SetMemo(false)() // every layer is walked
	types := heterogeneousFleet()
	base := settledGoroutines()
	tr, err := NewStreamTracker(types, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s, lambda := range workload.Diurnal(6, 3, 14, 6, 0) {
		if _, _, err := tr.Push(model.SlotInput{Lambda: lambda}); err != nil {
			t.Fatal(err)
		}
		if n := settledGoroutines(); n > base {
			t.Fatalf("after push %d: %d goroutines, %d before the tracker", s+1, n, base)
		}
	}
	if tr.le.solved == 0 {
		t.Fatal("no layer was walked")
	}
	runtime.KeepAlive(tr)
}

// settledGoroutines returns the goroutine count once it has stopped
// falling for 50 ms, or after 2 s: goroutines that signalled their
// group may still be returning, and collected garbage may still be
// releasing its own.
func settledGoroutines() int {
	runtime.GC()
	n, stable := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); stable < 10 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// A receding-horizon window (w = 3) solves each cell of a slot's layer
// at most once over the three windows the slot sits in, under fresh
// demand: its first, pruned sighting leaves a partial layer, the next
// window's first slot hits the memo, and the second sighting completes
// the partial layer rather than solving it again from scratch.
func TestWindowSolvesEachCellOnce(t *testing.T) {
	swapGcache(t, gcacheShards, gcacheMaxFloats)
	types := []model.ServerType{
		{Name: "a", Count: 40, SwitchCost: 3, MaxLoad: 1, Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
		{Name: "b", Count: 40, SwitchCost: 10, MaxLoad: 3, Cost: model.Static{F: costfn.Power{Idle: 2, Coef: 0.3, Exp: 2}}},
	}
	const w, decisions = 3, 60
	rng := rand.New(rand.NewSource(11))
	trace := workload.Diurnal(decisions+w-1, 10, 140, 24, 0)
	slots := make([]model.SlotInput, len(trace))
	for i, v := range trace {
		slots[i] = model.SlotInput{T: i + 1, Lambda: v * (0.9 + 0.2*rng.Float64())}
	}
	win, err := NewWindow(types)
	if err != nil {
		t.Fatal(err)
	}
	x := make(model.Config, len(types))
	for s := 0; s < decisions; s++ {
		cfg, _, err := win.Plan(x, slots[s:s+w])
		if err != nil {
			t.Fatal(err)
		}
		copy(x, cfg)
	}
	cells := 41 * 41
	perCell := float64(win.tr.le.solved) / float64(cells*len(slots))
	t.Logf("%d dispatch solves over %d slots of %d cells: %.2f per cell per slot", win.tr.le.solved, len(slots), cells, perCell)
	if perCell > 1 {
		t.Fatalf("the window solved %.2f dispatch programs per cell per slot, want <= 1", perCell)
	}
}
