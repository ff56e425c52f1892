package stream

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

func TestReplayDeltaBitIdentical(t *testing.T) {
	demands := []float64{1, 3, 6, 2, 4, 5, 1, 2}
	cut := 5 // snapshot covers slots 1..cut; the WAL delta holds the rest

	serial := open(t, Options{})
	for _, l := range demands {
		if _, err := serial.FeedDemand(l); err != nil {
			t.Fatal(err)
		}
	}

	snap := open(t, Options{})
	for _, l := range demands[:cut] {
		if _, err := snap.FeedDemand(l); err != nil {
			t.Fatal(err)
		}
	}
	// The delta carries duplicates below the snapshot's fed count —
	// replay must skip them without feeding.
	delta := []model.SlotInput{{T: cut - 1, Lambda: 99}, {T: cut, Lambda: 99}}
	for i, l := range demands[cut:] {
		delta = append(delta, model.SlotInput{T: cut + i + 1, Lambda: l})
	}
	applied, err := snap.ReplayDelta(delta)
	if err != nil {
		t.Fatalf("ReplayDelta: %v", err)
	}
	if applied != len(demands)-cut {
		t.Fatalf("applied %d, want %d", applied, len(demands)-cut)
	}
	if snap.Fed() != serial.Fed() || snap.CumCost() != serial.CumCost() {
		t.Fatalf("replayed session fed=%d cum=%v, serial fed=%d cum=%v",
			snap.Fed(), snap.CumCost(), serial.Fed(), serial.CumCost())
	}
	// Continuation after replay stays bit-identical.
	a1, err1 := serial.FeedDemand(3)
	a2, err2 := snap.FeedDemand(3)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(a1) != 1 || len(a2) != 1 || a1[0].CumCost != a2[0].CumCost || a1[0].Opt != a2[0].Opt {
		t.Fatalf("post-replay advisory diverged: %+v vs %+v", a1, a2)
	}
}

func TestReplayDeltaSkipsRejectedOrphans(t *testing.T) {
	s := open(t, Options{})
	if _, err := s.FeedDemand(2); err != nil {
		t.Fatal(err)
	}
	// Record 2 is an orphan: its original push was logged, then failed
	// validation (negative demand) without stepping the algorithm, so
	// the next logged record reuses index 2.
	delta := []model.SlotInput{
		{T: 2, Lambda: -5},
		{T: 2, Lambda: 4},
		{T: 3, Lambda: 1},
	}
	applied, err := s.ReplayDelta(delta)
	if err != nil {
		t.Fatalf("ReplayDelta: %v", err)
	}
	if applied != 2 || s.Fed() != 3 {
		t.Fatalf("applied=%d fed=%d, want 2 and 3", applied, s.Fed())
	}
}

func TestReplayDeltaStopsOnGap(t *testing.T) {
	s := open(t, Options{})
	if _, err := s.FeedDemand(2); err != nil {
		t.Fatal(err)
	}
	applied, err := s.ReplayDelta([]model.SlotInput{{T: 2, Lambda: 1}, {T: 5, Lambda: 1}})
	if err == nil {
		t.Fatal("a replay gap must be reported")
	}
	if applied != 1 || s.Fed() != 2 {
		t.Fatalf("applied=%d fed=%d after gap, want 1 and 2", applied, s.Fed())
	}
}

func TestReplayDeltaStopsOnStickyFailure(t *testing.T) {
	// Algorithm C panics past its subdivision cap; a session that
	// replays into that state must stop and report, not spin.
	alg, err := core.NewAlgorithmC(fleet(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(alg, fleet(), Options{DisableOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	var delta []model.SlotInput
	for i := 0; i < 64; i++ {
		delta = append(delta, model.SlotInput{T: i + 1, Lambda: float64(1 + i%5)})
	}
	applied, err := s.ReplayDelta(delta)
	if err == nil {
		// The cap may not trip within 64 slots for this fleet; only
		// assert the session stayed consistent in that case.
		if applied != len(delta) {
			t.Fatalf("no error but only %d of %d applied", applied, len(delta))
		}
		return
	}
	if s.Err() == nil {
		t.Fatal("replay error without sticky session failure")
	}
	if applied >= len(delta) {
		t.Fatal("sticky failure but everything applied")
	}
}
