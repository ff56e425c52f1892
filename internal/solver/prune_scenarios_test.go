package solver_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/stream"
)

// trackedAlg builds one of the algorithms that sweep a prefix tracker.
type trackedAlg struct {
	name string
	new  func(types []model.ServerType) (core.Online, error)
}

// trackedAlgs returns Algorithms A, B and C and LCP where they apply to
// ins.
func trackedAlgs(ins *model.Instance) []trackedAlg {
	var algs []trackedAlg
	if ins.TimeIndependent() {
		algs = append(algs, trackedAlg{"alg-a", func(types []model.ServerType) (core.Online, error) {
			return core.NewAlgorithmA(types)
		}})
	}
	algs = append(algs,
		trackedAlg{"alg-b", func(types []model.ServerType) (core.Online, error) {
			return core.NewAlgorithmB(types)
		}},
		trackedAlg{"alg-c", func(types []model.ServerType) (core.Online, error) {
			return core.NewAlgorithmC(types, 1)
		}})
	if ins.D() == 1 {
		algs = append(algs, trackedAlg{"lcp", func(types []model.ServerType) (core.Online, error) {
			return baseline.NewLCP(types)
		}})
	}
	return algs
}

// sessionRun is what one session run over an instance produced, slot by
// slot: its advisories, its algorithm tracker's layers (for tracked
// algorithms) and its saved states (the session's, else the tracker's).
type sessionRun struct {
	advs   []stream.Advisory
	layers [][]float64
	states [][]byte
}

func runSession(t *testing.T, ins *model.Instance, alg trackedAlg) sessionRun {
	t.Helper()
	a, err := alg.new(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.New(a, ins.Types, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var run sessionRun
	var in model.SlotInput
	for slot := 1; slot <= ins.T(); slot++ {
		ins.SlotInto(slot, &in)
		var adv stream.Advisory
		if _, err := s.Push(in, &adv); err != nil {
			t.Fatal(err)
		}
		run.advs = append(run.advs, adv)
		state := s.AppendState(nil)
		if tr, ok := a.(core.Tracked); ok {
			run.layers = append(run.layers, append([]float64(nil), solver.LayerOf(tr.Tracker())...))
			if len(state) == 0 {
				state = tr.Tracker().AppendState(nil)
			}
		}
		run.states = append(run.states, state)
	}
	return run
}

// sameAdvisory compares two advisories bit for bit.
func sameAdvisory(a, b stream.Advisory) bool {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	return a.Slot == b.Slot && a.Config.Equal(b.Config) && a.Active == b.Active &&
		bits(a.Operating) == bits(b.Operating) && bits(a.Switching) == bits(b.Switching) &&
		bits(a.CumCost) == bits(b.CumCost) && bits(a.Opt) == bits(b.Opt) && bits(a.Ratio) == bits(b.Ratio)
}

// checkPrunedRun fails unless got, a pruned run, decides and reports
// exactly what want, the unpruned run, does, and its tracker layers hold
// want's values or +Inf. It returns the number of cells got pruned.
func checkPrunedRun(t *testing.T, label string, got, want sessionRun) (pruned int) {
	t.Helper()
	for s := range want.advs {
		if !sameAdvisory(got.advs[s], want.advs[s]) {
			t.Fatalf("%s slot %d: pruned advisory %+v != unpruned %+v", label, s+1, got.advs[s], want.advs[s])
		}
	}
	for s := range want.layers {
		for i, w := range want.layers[s] {
			v := got.layers[s][i]
			if math.Float64bits(v) == math.Float64bits(w) {
				continue
			}
			if !math.IsInf(v, 1) {
				t.Fatalf("%s slot %d cell %d: surviving cell %v != unpruned %v", label, s+1, i, v, w)
			}
			pruned++
		}
	}
	return pruned
}

// Dominance pruning is invisible in every stock scenario: each tracked
// algorithm (A, B, C and LCP) advises and reports bit for bit what it
// does unpruned — with the memo off, on a
// fresh memo (every layer a miss), on its second sweep (the memo admits
// the layers) and on its third (every layer a hit) — and the pruned
// runs' saved states are the same bytes on all four memo paths. The
// offline solve, serial and over 2 workers, returns the unpruned
// schedules on a memo miss, a hit and with the memo off.
func TestPrunedMatchesUnprunedAllScenarios(t *testing.T) {
	pruned := 0
	defer func() {
		if pruned == 0 {
			t.Error("no run pruned a cell: the differential compared nothing")
		}
	}()
	for _, sc := range engine.Scenarios() {
		ins := sc.Instance(1)
		t.Run(sc.Name, func(t *testing.T) {
			for _, alg := range trackedAlgs(ins) {
				restorePrune := solver.SetPruning(false)
				want := runSession(t, ins, alg)
				restorePrune()
				restoreMemo := solver.SetMemo(false)
				runs := map[string]sessionRun{"memo off": runSession(t, ins, alg)}
				restoreMemo()
				restoreFresh := solver.FreshMemo()
				for _, path := range []string{"memo miss", "memo admit", "memo hit"} {
					runs[path] = runSession(t, ins, alg)
				}
				restoreFresh()
				for path, run := range runs {
					pruned += checkPrunedRun(t, alg.name+" "+path, run, want)
					for s := range run.states {
						if !bytes.Equal(run.states[s], runs["memo off"].states[s]) {
							t.Fatalf("%s %s slot %d: saved state differs from the memo-off run's", alg.name, path, s+1)
						}
					}
				}
			}
			for _, opts := range []solver.Options{{}, {Workers: 2}} {
				restorePrune := solver.SetPruning(false)
				want, err := solver.Solve(ins, opts)
				restorePrune()
				if err != nil {
					t.Fatal(err)
				}
				restoreFresh := solver.FreshMemo()
				for round := 0; round < 3; round++ { // a miss, a hit, the memo off
					restoreMemo := solver.SetMemo(round < 2)
					got, err := solver.Solve(ins, opts)
					restoreMemo()
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.Cost()) != math.Float64bits(want.Cost()) {
						t.Fatalf("%+v round %d: cost %v != unpruned %v", opts, round, got.Cost(), want.Cost())
					}
					for s := range want.Schedule {
						if !got.Schedule[s].Equal(want.Schedule[s]) {
							t.Fatalf("%+v round %d slot %d: schedule %v != unpruned %v", opts, round, s+1, got.Schedule[s], want.Schedule[s])
						}
					}
				}
				restoreFresh()
			}
		})
	}
}
