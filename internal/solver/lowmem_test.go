package solver

import (
	"math/rand"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// The block-recomputing solver must return bit for bit the same cost and
// schedule as the default path: both walk back over identical layers.
func TestSolveLowMemoryMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 30; i++ {
		ins := randomInstance(rng, 2, 4, 12)
		def, err := Solve(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		low, err := Solve(ins, Options{LowMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, def, low)
	}
}

// sameSolution fails unless low has exactly def's cost and schedule.
func sameSolution(t *testing.T, def, low *Result) {
	t.Helper()
	if low.Cost() != def.Cost() {
		t.Fatalf("low-memory cost %v != default %v", low.Cost(), def.Cost())
	}
	if len(low.Schedule) != len(def.Schedule) {
		t.Fatalf("low-memory schedule has %d slots, default %d", len(low.Schedule), len(def.Schedule))
	}
	for tt := range def.Schedule {
		if !def.Schedule[tt].Equal(low.Schedule[tt]) {
			t.Fatalf("slot %d: schedules differ (%v vs %v)", tt+1, def.Schedule[tt], low.Schedule[tt])
		}
	}
}

func TestSolveLowMemoryWithGammaAndTimeVarying(t *testing.T) {
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

	def, err := Solve(ins, Options{Gamma: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Solve(ins, Options{Gamma: 1.5, LowMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, def, low)
	if err := ins.Feasible(low.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLowMemorySingleSlot(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 2, SwitchCost: 1, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{1},
	}
	low, err := Solve(ins, Options{LowMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(low.Cost(), 2, 1e-12) { // β + idle
		t.Errorf("cost = %v, want 2", low.Cost())
	}
}

func TestSolveLowMemoryInfeasible(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 1, SwitchCost: 1, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{2},
	}
	if _, err := Solve(ins, Options{LowMemory: true}); err == nil {
		t.Error("expected infeasibility error")
	}
}

func BenchmarkSolveLowMemoryT96(b *testing.B) {
	ins := benchInstance(96, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(ins, Options{LowMemory: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// LowMemory recomputes its blocks on the sweep's own tracker, rewound to
// each block's start, instead of building a tracker (accumulator, layer
// evaluator, worker pool) per block. A rewind decodes the block's saved
// state into the tracker's buffers and keeps its lattice, and the saved
// states share one buffer. On the T = 96 bench instance (10 blocks) that
// is 59 allocations, 60 under the race detector; a fresh layer and
// lattice per rewind made 180, a tracker per block 366.
func TestSolveLowMemoryAllocs(t *testing.T) {
	ins := benchInstance(96, 16)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Solve(ins, Options{LowMemory: true}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Fatalf("LowMemory Solve allocates %v times, want <= 60", allocs)
	}
}
