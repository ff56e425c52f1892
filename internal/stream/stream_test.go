package stream

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/solver"
)

func fleet() []model.ServerType {
	return []model.ServerType{
		{Name: "slow", Count: 4, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
		{Name: "fast", Count: 2, SwitchCost: 8, MaxLoad: 4,
			Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.5}}},
	}
}

func open(t *testing.T, opts Options) *Session {
	t.Helper()
	alg, err := core.NewAlgorithmA(fleet())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(alg, fleet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionAdvisoryTelemetry(t *testing.T) {
	s := open(t, Options{})
	demands := []float64{1, 3, 6, 2}
	var last Advisory
	for i, l := range demands {
		advs, err := s.FeedDemand(l)
		if err != nil {
			t.Fatalf("slot %d: %v", i+1, err)
		}
		if len(advs) != 1 {
			t.Fatalf("slot %d: %d advisories, want 1 (fully online)", i+1, len(advs))
		}
		adv := advs[0]
		if adv.Slot != i+1 || adv.Lambda != l {
			t.Fatalf("advisory %+v echoes wrong slot data", adv)
		}
		if adv.Pending != 0 {
			t.Errorf("fully online algorithm reports %d pending slots", adv.Pending)
		}
		if adv.Opt <= 0 || adv.Ratio < 1-1e-9 {
			t.Errorf("slot %d: opt %g ratio %g; expected positive opt and ratio >= 1", i+1, adv.Opt, adv.Ratio)
		}
		if adv.CumCost < last.CumCost {
			t.Error("running cost decreased")
		}
		last = adv
	}
	if s.Fed() != len(demands) || s.Decided() != len(demands) {
		t.Errorf("fed %d decided %d, want %d", s.Fed(), s.Decided(), len(demands))
	}

	// The session's running cost equals the batch cost of the same trace.
	ins := &model.Instance{Types: fleet(), Lambda: demands}
	alg, _ := core.NewAlgorithmA(fleet())
	sched := core.Run(alg, ins)
	batch := model.NewEvaluator(ins).Cost(sched).Total()
	if got := s.CumCost(); got != batch {
		t.Errorf("session cum cost %v != batch %v", got, batch)
	}
	// And the reported optimum is the true prefix optimum.
	opt, err := solver.OptimalCost(ins)
	if err != nil {
		t.Fatal(err)
	}
	if last.Opt != opt {
		t.Errorf("final advisory opt %v != OPT %v", last.Opt, opt)
	}
}

func TestSessionValidatesBeforeStepping(t *testing.T) {
	s := open(t, Options{})
	if _, err := s.FeedDemand(-1); err == nil {
		t.Error("negative demand must be rejected")
	}
	if _, err := s.FeedDemand(1e9); err == nil {
		t.Error("demand above capacity must be rejected")
	}
	if _, err := s.Feed(model.SlotInput{T: 5, Lambda: 1}); err == nil {
		t.Error("out-of-order slot must be rejected")
	}
	// The rejected inputs must not have reached the algorithm.
	if s.Fed() != 0 {
		t.Errorf("fed = %d after rejected inputs, want 0", s.Fed())
	}
	if _, err := s.FeedDemand(2); err != nil {
		t.Fatalf("valid feed after rejections: %v", err)
	}
}

func TestSessionDisableOpt(t *testing.T) {
	s := open(t, Options{DisableOpt: true})
	advs, err := s.FeedDemand(2)
	if err != nil {
		t.Fatal(err)
	}
	if advs[0].Opt != 0 || advs[0].Ratio != 0 {
		t.Errorf("telemetry disabled but advisory has opt %g ratio %g", advs[0].Opt, advs[0].Ratio)
	}
}

func TestSessionLookaheadPendingAndClose(t *testing.T) {
	alg, err := baseline.NewLookahead(fleet(), 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(alg, fleet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	demands := []float64{1, 2, 3, 4, 5}
	decided := 0
	for i, l := range demands {
		advs, err := s.FeedDemand(l)
		if err != nil {
			t.Fatal(err)
		}
		decided += len(advs)
		if i < 2 && decided != 0 {
			t.Fatalf("slot %d decided early (window not full)", i+1)
		}
	}
	if decided != 3 {
		t.Fatalf("decided %d of %d before close, want 3 (lag w-1)", decided, len(demands))
	}
	advs, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 2 {
		t.Fatalf("close flushed %d advisories, want 2", len(advs))
	}
	if advs[len(advs)-1].Slot != len(demands) {
		t.Errorf("last advisory slot %d, want %d", advs[len(advs)-1].Slot, len(demands))
	}
}

// Regression: Close() mixes lagged and current-slot records back to back;
// the lagged slot must be re-materialised into its own buffer, not into
// the shared scratch, or the final advisory is costed with the previous
// slot's cost functions. Caught by review with a time-varying last slot.
func TestLookaheadCloseWithTimeVaryingCosts(t *testing.T) {
	scale := []float64{1, 1, 1, 3, 4} // last two slots differ
	types := []model.ServerType{{
		Name: "srv", Count: 4, SwitchCost: 2, MaxLoad: 1,
		Cost: model.Modulated{F: costfn.Affine{Idle: 1, Rate: 1}, Scale: scale},
	}}
	demands := []float64{1, 2, 3, 2, 1}

	alg, err := baseline.NewLookahead(types, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(alg, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sched model.Schedule
	for _, l := range demands {
		advs, err := s.FeedDemand(l)
		if err != nil {
			t.Fatal(err)
		}
		for _, adv := range advs {
			sched = append(sched, adv.Config)
		}
	}
	advs, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range advs {
		sched = append(sched, adv.Config)
	}

	ins := &model.Instance{Types: types, Lambda: demands}
	alg2, _ := baseline.NewLookahead(types, 2)
	batch := core.Run(alg2, ins)
	if len(sched) != len(batch) {
		t.Fatalf("decided %d slots, batch %d", len(sched), len(batch))
	}
	for i := range batch {
		if !batch[i].Equal(sched[i]) {
			t.Fatalf("slot %d: stream %v != batch %v", i+1, sched[i], batch[i])
		}
	}
	if got, want := s.CumCost(), model.NewEvaluator(ins).Cost(batch).Total(); got != want {
		t.Errorf("session cum cost %v != batch %v (lagged record costed with the wrong slot?)", got, want)
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	s := open(t, Options{})
	demands := []float64{1, 4, 2, 6, 3, 5}
	for _, l := range demands[:3] {
		if _, err := s.FeedDemand(l); err != nil {
			t.Fatal(err)
		}
	}
	cp := s.Checkpoint()
	if !cp.Portable() {
		t.Error("demand-only log should be portable")
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(data, &cp2); err != nil {
		t.Fatal(err)
	}
	alg2, _ := core.NewAlgorithmA(fleet())
	r, err := Resume(alg2, fleet(), Options{}, &cp2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fed() != 3 || r.CumCost() != s.CumCost() {
		t.Fatalf("resumed state (fed %d, cost %v) != original (fed %d, cost %v)",
			r.Fed(), r.CumCost(), s.Fed(), s.CumCost())
	}
	// Both sessions must continue identically.
	for _, l := range demands[3:] {
		a1, err1 := s.FeedDemand(l)
		a2, err2 := r.FeedDemand(l)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !a1[0].Config.Equal(a2[0].Config) || a1[0].CumCost != a2[0].CumCost {
			t.Fatalf("slot %d diverged after resume: %+v vs %+v", a1[0].Slot, a1[0], a2[0])
		}
	}
}

func TestCheckpointWithExplicitCostsNotPortable(t *testing.T) {
	alg, _ := core.NewAlgorithmB(fleet())
	s, err := New(alg, fleet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	costs := []costfn.Func{costfn.Constant{C: 2}, costfn.Constant{C: 5}}
	if _, err := s.Feed(model.SlotInput{Lambda: 1, Costs: costs}); err != nil {
		t.Fatal(err)
	}
	cp := s.Checkpoint()
	if cp.Portable() {
		t.Error("explicit cost functions cannot round-trip JSON")
	}
	// In-process resume still works with full fidelity.
	alg2, _ := core.NewAlgorithmB(fleet())
	r, err := Resume(alg2, fleet(), Options{}, cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fed() != 1 || r.CumCost() != s.CumCost() {
		t.Error("in-memory resume should replay explicit costs")
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := New(nil, fleet(), Options{}); err == nil {
		t.Error("nil algorithm must be rejected")
	}
	alg, _ := core.NewAlgorithmA(fleet())
	if _, err := New(alg, nil, Options{}); err == nil {
		t.Error("empty fleet must be rejected")
	}
}

// A time-dependent fleet defines its costs for a fixed number of slots.
// A push past them is a bad slot, refused like an infeasible one: the
// session is unchanged and keeps accepting slots that carry their own
// costs.
func TestPushPastProfileHorizon(t *testing.T) {
	price := []float64{1, 1.5, 0.5}
	types := []model.ServerType{
		{Name: "slow", Count: 4, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Modulated{F: costfn.Affine{Idle: 1, Rate: 1}, Scale: price}},
		{Name: "fast", Count: 2, SwitchCost: 8, MaxLoad: 4,
			Cost: model.Varying{Fs: []costfn.Func{costfn.Affine{Idle: 3, Rate: 0.5}, costfn.Constant{C: 2}, costfn.Affine{Idle: 1, Rate: 1}}}},
	}
	alg, err := core.NewAlgorithmB(types)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(alg, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range price {
		if _, err := s.FeedDemand(2); err != nil {
			t.Fatal(err)
		}
	}
	cost := s.CumCost()
	for range 2 {
		_, err := s.FeedDemand(2)
		if err == nil || !strings.Contains(err.Error(), "slot 4") {
			t.Fatalf("push past the profiles: err %v, want a slot-4 error", err)
		}
		if s.Err() != nil || s.Fed() != 3 || s.CumCost() != cost {
			t.Fatalf("refused push changed the session: err %v, fed %d, cost %v (want %v)", s.Err(), s.Fed(), s.CumCost(), cost)
		}
	}
	in := model.SlotInput{Lambda: 2, Costs: []costfn.Func{costfn.Affine{Idle: 1, Rate: 1}, costfn.Constant{C: 2}}}
	if _, err := s.Feed(in); err != nil || s.Fed() != 4 {
		t.Fatalf("slot with its own costs after the refusal: err %v, fed %d", err, s.Fed())
	}
}
