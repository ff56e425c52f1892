package solver

import (
	"testing"

	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/perfref"
	"repro/internal/workload"
)

// benchLayerInstance mirrors the facade benchmark fleet (24 CPUs + 6
// GPUs, two days of diurnal load): a 175-cell lattice per slot.
func benchLayerInstance() *model.Instance {
	return &model.Instance{
		Types: []model.ServerType{
			{Name: "cpu", Count: 24, SwitchCost: 2, MaxLoad: 1,
				Cost: model.Static{F: costfn.Power{Idle: 1, Coef: 0.6, Exp: 2}}},
			{Name: "gpu", Count: 6, SwitchCost: 15, MaxLoad: 4,
				Cost: model.Static{F: costfn.Affine{Idle: 4, Rate: 0.3}}},
		},
		Lambda: workload.Diurnal(48, 3, 40, 24, 0),
	}
}

// fullGrid is the full lattice of a static instance's fleet.
func fullGrid(ins *model.Instance) *grid.Grid {
	counts := make([]int, ins.D())
	for j, st := range ins.Types {
		counts[j] = st.Count
	}
	return grid.NewFull(counts)
}

// layerSweep returns one op of the layer benchmarks: all T layers of
// the instance through one layerEvaluator, on the layer memo or off it
// — the solver's dominant kernel (every cell solves a dispatch program,
// warm-started along lattice lines).
func layerSweep(memo bool) func() {
	ins := benchLayerInstance()
	g := fullGrid(ins)
	defer SetMemo(memo)()
	var in model.SlotInput
	le := newLayerEvaluator(ins.Types, &in, Options{})
	return func() {
		for t := 1; t <= ins.T(); t++ {
			ins.SlotInto(t, &in)
			le.begin(g.Size(), g, true)
		}
	}
}

// layerEvalRatio is BenchmarkLayerEval's wall-time gate (see
// perfref.Gate): ns/op over the reference task's, recorded on a 2-vCPU
// Xeon @ 2.1 GHz, Go 1.24, 2026-10-21.
const layerEvalRatio = 0.509

// BenchmarkLayerEval measures the raw warm-started sweep (memo off: every
// cell of every slot is solved).
func BenchmarkLayerEval(b *testing.B) {
	op := layerSweep(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
	perfref.Gate(b, layerEvalRatio, op)
}

// BenchmarkLayerEvalMemo measures the steady-state path with the layer
// memo on: the periodic trace repeats slot content, so most layers are
// served from cache.
func BenchmarkLayerEvalMemo(b *testing.B) {
	op := layerSweep(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// With the memo off, a layer's evaluation allocates nothing once the
// evaluator's buffers are sized: preparing each slot's dispatch type
// table reuses the solver's, and every cell is solved in place.
func TestLayerEvalAllocs(t *testing.T) {
	op := layerSweep(false)
	op()
	if a := testing.AllocsPerRun(5, op); a != 0 {
		t.Fatalf("a memo-off layer sweep allocates %v times, want 0", a)
	}
}
