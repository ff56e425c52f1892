package stream

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
)

func sharingFleet() []model.ServerType {
	return []model.ServerType{
		{Name: "cpu", Count: 8, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Power{Idle: 1, Coef: 0.6, Exp: 2}}},
		{Name: "gpu", Count: 3, SwitchCost: 12, MaxLoad: 4,
			Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.3}}},
	}
}

func sharingTrace() []float64 {
	out := make([]float64, 40)
	for i := range out {
		out[i] = 4 + 6*math.Sin(float64(i)/5) + 3*math.Cos(float64(i)/3)
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// hideTracker wraps an algorithm so only the plain Online interface
// shows, forcing the session onto its dedicated telemetry tracker.
type hideTracker struct{ core.Online }

// Telemetry sharing is pure plumbing: a session reusing the algorithm's
// prefix tracker must emit advisories bit-identical — including Opt and
// Ratio — to a session that runs its own tracker over the same stream.
func TestSharedTelemetryMatchesDedicatedTracker(t *testing.T) {
	types := sharingFleet()
	mk := func(hide bool) *Session {
		alg, err := core.NewAlgorithmB(types)
		if err != nil {
			t.Fatal(err)
		}
		var online core.Online = alg
		if hide {
			online = hideTracker{alg}
		}
		sess, err := New(online, types, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	shared, dedicated := mk(false), mk(true)
	if !shared.SharesOptTracker() {
		t.Fatal("Algorithm B session should share the algorithm's tracker")
	}
	if dedicated.SharesOptTracker() {
		t.Fatal("wrapped session must fall back to its own tracker")
	}
	for i, lambda := range sharingTrace() {
		a, err := shared.FeedDemand(lambda)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dedicated.FeedDemand(lambda)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 1 || len(b) != 1 {
			t.Fatalf("slot %d: expected one advisory each, got %d/%d", i+1, len(a), len(b))
		}
		av, bv := a[0], b[0]
		if !av.Config.Equal(bv.Config) ||
			math.Float64bits(av.Opt) != math.Float64bits(bv.Opt) ||
			math.Float64bits(av.Ratio) != math.Float64bits(bv.Ratio) ||
			math.Float64bits(av.CumCost) != math.Float64bits(bv.CumCost) {
			t.Fatalf("slot %d: shared advisory %+v != dedicated %+v", i+1, av, bv)
		}
	}
}

// Approximate (reduced-lattice) trackers must not serve telemetry: their
// prefix costs are only (2γ−1)-approximate.
func TestInexactTrackerNotShared(t *testing.T) {
	types := sharingFleet()
	alg, err := core.NewAlgorithmBWithOptions(types, core.Options{TrackerGamma: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(alg, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.SharesOptTracker() {
		t.Fatal("reduced-lattice tracker must not be reused for telemetry")
	}
	if _, err := sess.FeedDemand(3); err != nil {
		t.Fatal(err)
	}
}

// DisableOpt suppresses telemetry even for sharing-capable algorithms.
func TestDisableOptSuppressesSharing(t *testing.T) {
	types := sharingFleet()
	alg, err := core.NewAlgorithmB(types)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(alg, types, Options{DisableOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	if sess.SharesOptTracker() {
		t.Fatal("DisableOpt must suppress sharing")
	}
	advs, err := sess.FeedDemand(3)
	if err != nil {
		t.Fatal(err)
	}
	if advs[0].Opt != 0 || advs[0].Ratio != 0 {
		t.Fatalf("telemetry fields should be zero with DisableOpt, got %+v", advs[0])
	}
}

// The headline allocation guard of the perf issue: once a session over a
// static fleet reaches steady state, Push performs zero allocations —
// validation, accumulation, the algorithm's DP step (memo-served), cost
// accounting and telemetry included.
func TestSteadyStatePushZeroAllocs(t *testing.T) {
	types := sharingFleet()
	alg, err := core.NewAlgorithmB(types)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(alg, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var adv Advisory
	push := func() {
		decided, err := sess.Push(model.SlotInput{Lambda: 7.5}, &adv)
		if err != nil || !decided {
			t.Fatalf("push: decided=%v err=%v", decided, err)
		}
	}
	// Reach steady state: grow the replay log, histories and DP buffers,
	// and populate the operating-cost layer memo.
	for i := 0; i < 512; i++ {
		push()
	}
	if avg := testing.AllocsPerRun(100, push); avg != 0 {
		t.Errorf("steady-state Session.Push allocates %v/op, want 0", avg)
	}
	if adv.Slot != sess.Decided() || adv.Opt <= 0 {
		t.Fatalf("advisory not maintained through steady state: %+v", adv)
	}
}
