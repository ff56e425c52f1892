package baseline

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/solver"
)

// LCP is discrete lazy capacity provisioning for homogeneous data centers
// (d = 1), after Lin–Wierman–Andrew–Thereska and the discrete treatment of
// Albers–Quedenfeld (SPAA 2018): at every slot the server count is lazily
// clamped into the corridor [x̂_lo(t), x̂_hi(t)] spanned by the smallest
// and largest final configurations of optimal schedules for the prefix
// instance I_t. It serves as the strongest prior-work baseline on
// homogeneous instances; the paper's Algorithm A generalises the idea to
// d > 1. The corridor is maintained by a streaming prefix tracker, so LCP
// is push-based like every other algorithm here.
type LCP struct {
	tracker *solver.PrefixTracker
	x       int
	out     model.Config
}

// NewLCP builds the baseline; it requires a homogeneous fleet (d = 1).
func NewLCP(types []model.ServerType) (*LCP, error) {
	if len(types) != 1 {
		return nil, fmt.Errorf("baseline: LCP requires d = 1, got %d server types", len(types))
	}
	tracker, err := solver.NewStreamTracker(types, solver.Options{})
	if err != nil {
		return nil, err
	}
	return &LCP{tracker: tracker, out: make(model.Config, 1)}, nil
}

// Name implements core.Online.
func (l *LCP) Name() string { return "LCP" }

// Step implements core.Online.
func (l *LCP) Step(in model.SlotInput) model.Config {
	if _, _, err := l.tracker.Push(in); err != nil {
		panic("baseline: " + err.Error())
	}
	lo, hi := l.tracker.OptRange()
	l.x = numeric.ClampInt(l.x, lo[0], hi[0])
	l.out[0] = l.x
	return l.out
}

// Tracker implements core.Tracked: LCP's corridor tracker is always
// exact, so sessions reuse it for telemetry.
func (l *LCP) Tracker() *solver.PrefixTracker { return l.tracker }
