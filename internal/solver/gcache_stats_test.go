package solver

import (
	"testing"
	"unsafe"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/workload"
)

// The stats stripes must stay whole cache lines (the same false-sharing
// argument as the shards themselves; see gcacheStats).
func TestGCacheStatsPadding(t *testing.T) {
	if s := unsafe.Sizeof(gcacheStats{}); s%64 != 0 {
		t.Errorf("gcacheStats is %d bytes, not a multiple of the 64-byte cache line", s)
	}
}

// MemoStats counts every memoisable lookup exactly once: a cold solve of
// a periodic trace records misses for the distinct layers and hits for
// the repeats, and a second identical solve is all hits. The tally must
// track the swapped memo instance, not a stale one.
func TestMemoStats(t *testing.T) {
	swapGcache(t, gcacheShards, gcacheMaxFloats)

	ins := &model.Instance{
		Types: []model.ServerType{
			{Name: "a", Count: 6, SwitchCost: 2, MaxLoad: 1,
				Cost: model.Static{F: costfn.Power{Idle: 1, Coef: 0.5, Exp: 2}}},
			{Name: "b", Count: 3, SwitchCost: 8, MaxLoad: 4,
				Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.4}}},
		},
		Lambda: workload.Diurnal(24, 2, 10, 8, 0),
	}
	h0, m0 := MemoStats()
	if h0 != 0 || m0 != 0 {
		t.Fatalf("fresh memo reports hits=%d misses=%d, want 0, 0", h0, m0)
	}

	if _, err := Solve(ins, Options{}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := MemoStats()
	if m1 == 0 {
		t.Fatalf("cold solve recorded no misses (hits=%d misses=%d)", h1, m1)
	}
	if h1+m1 < 24 {
		t.Fatalf("24-slot solve recorded only %d lookups", h1+m1)
	}
	if h1 == 0 {
		t.Fatalf("periodic trace recorded no hits (misses=%d); layer reuse is broken", m1)
	}

	if _, err := Solve(ins, Options{}); err != nil {
		t.Fatal(err)
	}
	h2, m2 := MemoStats()
	if m2 != m1 {
		t.Errorf("warm solve recorded %d new misses, want 0", m2-m1)
	}
	if h2 <= h1 {
		t.Errorf("warm solve recorded no hits (hits %d -> %d)", h1, h2)
	}
}

// The doorkeepers stay whole cache lines, like the shards they sit
// beside.
func TestGCacheDoorPadding(t *testing.T) {
	if s := unsafe.Sizeof(gcacheDoor{}); s%64 != 0 {
		t.Errorf("gcacheDoor is %d bytes, not a multiple of the 64-byte cache line", s)
	}
}

// Evaluators built in a row count their memo lookups on distinct stat
// stripes, so sessions hitting one layer on two cores write two lines.
func TestLayerEvaluatorsTakeDistinctStripes(t *testing.T) {
	ins := &model.Instance{
		Types:  []model.ServerType{{Count: 2, SwitchCost: 1, MaxLoad: 1, Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}}},
		Lambda: []float64{1},
	}
	seen := map[uint32]bool{}
	for range gcacheStripes {
		seen[slotEvaluator(ins, 1, Options{}).stripe] = true
	}
	if len(seen) != gcacheStripes {
		t.Errorf("%d evaluators in a row took %d distinct stripes, want %d", gcacheStripes, len(seen), gcacheStripes)
	}
}
