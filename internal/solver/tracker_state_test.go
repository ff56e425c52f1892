package solver

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/statebuf"
)

// stateFleet is a two-type fleet; with Gamma 2 its first type's reduced
// axis {0, 1, 2, 4, 8, 16, 20} is shorter than its count.
func stateFleet() []model.ServerType {
	return []model.ServerType{
		{Count: 20, SwitchCost: 3, MaxLoad: 1, Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 0.5}}},
		{Count: 2, SwitchCost: 7, MaxLoad: 4, Cost: model.Static{F: costfn.Affine{Idle: 2, Rate: 0.2}}},
	}
}

// pushedTracker returns a stream tracker fed the first n demands.
func pushedTracker(t *testing.T, opts Options, lambdas []float64, n int) *PrefixTracker {
	t.Helper()
	tr, err := NewStreamTracker(stateFleet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lambdas[:n] {
		if _, _, err := tr.Push(model.SlotInput{Lambda: l}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// Opt reports the prefix optimum of the tracker's last step: 0 before
// the first slot, what Push returned after each, and after RestoreState
// the saving tracker's, bit for bit, recomputed from the restored layer.
func TestTrackerOpt(t *testing.T) {
	lambdas := []float64{3, 11.5, 0.5, 20, 7.25, 14}
	for _, opts := range []Options{{}, {Gamma: 2}} {
		tr := pushedTracker(t, opts, lambdas, 0)
		if tr.Opt() != 0 {
			t.Fatalf("gamma %v: Opt %v before the first slot", opts.Gamma, tr.Opt())
		}
		for i, l := range lambdas {
			_, c, _ := tr.Push(model.SlotInput{Lambda: l})
			if math.Float64bits(tr.Opt()) != math.Float64bits(c) {
				t.Fatalf("gamma %v slot %d: Opt %v, Push %v", opts.Gamma, i+1, tr.Opt(), c)
			}
			got, err := NewStreamTracker(stateFleet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got.Seek(i + 1)
			if err := got.RestoreState(tr.AppendState(nil)); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Opt()) != math.Float64bits(c) {
				t.Fatalf("gamma %v slot %d: restored Opt %v, saved %v", opts.Gamma, i+1, got.Opt(), c)
			}
		}
	}
}

// A tracker restored from its state after Seek continues bit-identically
// to the one that saved it, on the full and on the reduced lattice.
func TestTrackerRestoreStateContinues(t *testing.T) {
	lambdas := []float64{3, 11.5, 0.5, 20, 7.25, 14}
	const cut = 3
	for _, opts := range []Options{{}, {Gamma: 2}} {
		want := pushedTracker(t, opts, lambdas, cut)
		got, err := NewStreamTracker(stateFleet(), opts)
		if err != nil {
			t.Fatal(err)
		}
		got.Seek(cut)
		if err := got.RestoreState(want.AppendState(nil)); err != nil {
			t.Fatalf("gamma %v: %v", opts.Gamma, err)
		}
		for _, l := range lambdas[cut:] {
			wx, wc, _ := want.Push(model.SlotInput{Lambda: l})
			gx, gc, err := got.Push(model.SlotInput{Lambda: l})
			if err != nil || !gx.Equal(wx) || math.Float64bits(gc) != math.Float64bits(wc) {
				t.Fatalf("gamma %v demand %v: restored %v (%v, %v), saved %v (%v)", opts.Gamma, l, gx, gc, err, wx, wc)
			}
		}
	}
}

// The saved lattice counts are outside input: counts that do not fit the
// fleet or the saved layer are refused with ErrMalformed before any
// lattice is built — no panic on a negative count, no index error on the
// next Push after too few counts, no allocation sized by a huge count —
// and leave the tracker unrestored.
func TestTrackerRestoreStateRefusesForeignCounts(t *testing.T) {
	lambdas := []float64{3, 11.5, 0.5}
	for _, opts := range []Options{{}, {Gamma: 2}, {Gamma: 1.0001}} {
		saved := pushedTracker(t, opts, lambdas, len(lambdas))
		layer := saved.layer
		for _, counts := range [][]int{
			{-1, 2},
			{15},
			{20, 2, 1},
			{1 << 40, 0},
			{maxRestoredCount, 0},
			{maxRestoredCount + 1, 0},
			{math.MaxInt, 0},
			{0, math.MaxInt},
			{20, 1},
		} {
			state := statebuf.AppendHeader(nil, trackerStateKind, trackerStateVersion)
			state = statebuf.AppendInt(state, len(lambdas))
			state = statebuf.AppendInts(state, counts)
			state = statebuf.AppendFloats(state, layer)
			tr, err := NewStreamTracker(stateFleet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			tr.Seek(len(lambdas))
			if err := tr.RestoreState(state); !errors.Is(err, statebuf.ErrMalformed) {
				t.Fatalf("gamma %v counts %v: %v, want ErrMalformed", opts.Gamma, counts, err)
			}
			if tr.T() != 0 || tr.layer != nil {
				t.Fatalf("gamma %v counts %v: refused state left the tracker at slot %d", opts.Gamma, counts, tr.T())
			}
		}
	}
}

// Refusing a huge count on a reduced lattice whose γ is close to 1 does
// not build the count's reduced axis: it has about log(m)/log(γ) levels,
// some 360 000 for m = 2^52 and γ = 1.0001.
func TestTrackerRestoreStateHugeReducedCountIsCheap(t *testing.T) {
	opts := Options{Gamma: 1.0001}
	lambdas := []float64{3, 11.5, 0.5}
	saved := pushedTracker(t, opts, lambdas, len(lambdas))
	state := statebuf.AppendHeader(nil, trackerStateKind, trackerStateVersion)
	state = statebuf.AppendInt(state, len(lambdas))
	state = statebuf.AppendInts(state, []int{maxRestoredCount, 0})
	state = statebuf.AppendFloats(state, saved.layer)
	tr, err := NewStreamTracker(stateFleet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.Seek(len(lambdas))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = tr.RestoreState(state)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, statebuf.ErrMalformed) {
		t.Fatalf("restore: %v, want ErrMalformed", err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Fatalf("refusing the count allocated %d bytes", b)
	}
}

// LatticeCells multiplies the axis lengths without overflow, for any
// counts, and refuses a lattice over the limit.
func TestLatticeCells(t *testing.T) {
	fleet := func(counts ...int) []model.ServerType {
		types := make([]model.ServerType, len(counts))
		for j, c := range counts {
			types[j] = model.ServerType{Count: c, MaxLoad: 1}
		}
		return types
	}
	for _, c := range []struct {
		counts []int
		cells  int
		ok     bool
	}{
		{[]int{10, 6, 3}, 308, true},
		{[]int{0}, 1, true},
		{[]int{511, 511}, 1 << 18, true},
		{[]int{511, 512}, 0, false},
		{[]int{1 << 62, 1 << 62}, 0, false},
		{[]int{math.MaxInt}, 0, false},
		{[]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0, false},
		{[]int{-1}, 0, false},
	} {
		cells, ok := LatticeCells(fleet(c.counts...), MaxLatticeCells)
		if cells != c.cells || ok != c.ok {
			t.Errorf("counts %v: (%d, %v), want (%d, %v)", c.counts, cells, ok, c.cells, c.ok)
		}
	}
}
