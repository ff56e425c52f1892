package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/solver"
)

// noTimeout marks server types that never power down (idle cost zero:
// their accumulated idle cost can never exceed β_j).
const noTimeout = math.MaxInt / 4

// TypeA is the per-type state machine of Algorithm A for one server type:
// a server powered up at slot s runs for exactly t̄ slots — the block
// A_{j,i} = [s : s+t̄−1] — and is then powered down regardless of use,
// where t̄ = ⌈β_j / f_j(0)⌉ (ski-rental: power down once the idle cost
// spent would have paid for the power-up). Only the pending power-ups
// are kept, at most m_j of them (see powerUps), however many slots
// have passed.
//
// TypeA is exported so the paper's Figure 1 can be reproduced from the
// production state machine; AlgorithmA composes d of them with the
// prefix-optimum tracker.
type TypeA struct {
	powerUps
	tbar int
}

// NewTypeA builds the state machine for timeout t̄ >= 1; pass
// TimeoutA(beta, idle) to derive t̄ from the model parameters.
func NewTypeA(tbar int) *TypeA {
	if tbar < 1 {
		panic("core: t̄ must be at least 1")
	}
	return &TypeA{tbar: tbar}
}

// TimeoutA returns t̄ = ⌈β / f(0)⌉, the run length of Algorithm A's
// servers. Zero idle cost yields an effectively infinite timeout (servers
// are never powered down); t̄ is at least 1 so a powered-up server serves
// its mandated slot.
func TimeoutA(beta, idle float64) int {
	if beta < 0 || idle < 0 {
		panic("core: negative cost parameters")
	}
	if idle == 0 {
		return noTimeout
	}
	// Clamp before converting: a ratio beyond int's range would convert
	// to a negative t̄ and end up as 1.
	r := math.Ceil(beta / idle)
	if !(r < noTimeout) {
		return noTimeout
	}
	return max(int(r), 1)
}

// Tbar returns the timeout t̄.
func (s *TypeA) Tbar() int { return s.tbar }

// Step advances one slot with prefix-optimum target xhat and returns the
// number of active servers x^A_{t,j}. It implements lines 4–8 of
// Algorithm 1: expire the servers powered up t̄ slots ago, then top up to
// xhat.
func (s *TypeA) Step(xhat int) int {
	s.t++
	for s.head < len(s.events) && s.events[s.head].slot <= s.t-s.tbar {
		s.pop()
	}
	return s.topUp(xhat, 0)
}

// AlgorithmA is the (2d+1)-competitive online algorithm of Section 2 for
// time-independent operating cost functions.
type AlgorithmA struct {
	prefixRule
	types []*TypeA
}

// prefixRule is the power-up rule Algorithms A and B share: each slot is
// fed to the prefix tracker first, and x̂^t_t, the last configuration of
// an optimal schedule for the prefix, is the least the per-type machines
// keep running.
type prefixRule struct {
	fleet   []model.ServerType
	tracker *solver.PrefixTracker
	lastOpt model.Config
	out     model.Config // scratch returned by Step
}

func newPrefixRule(types []model.ServerType, opts Options) (prefixRule, error) {
	tracker, err := solver.NewStreamTracker(types, solver.Options{Gamma: opts.TrackerGamma})
	if err != nil {
		return prefixRule{}, err
	}
	return prefixRule{
		fleet:   append([]model.ServerType(nil), types...),
		tracker: tracker,
		out:     make(model.Config, len(types)),
	}, nil
}

// push feeds one slot to the tracker and returns x̂^t_t.
func (r *prefixRule) push(in model.SlotInput) model.Config {
	xhat, _, err := r.tracker.Push(in)
	if err != nil {
		panic("core: " + err.Error())
	}
	r.lastOpt = append(r.lastOpt[:0], xhat...)
	return xhat
}

// PrefixOpt returns x̂^t_t from the most recent Step: the final
// configuration of an optimal schedule for the prefix instance. Useful for
// instrumentation and for verifying the invariant x_{t,j} >= x̂^t_{t,j}.
func (r *prefixRule) PrefixOpt() model.Config { return r.lastOpt }

// Tracker implements Tracked.
func (r *prefixRule) Tracker() *solver.PrefixTracker { return r.tracker }

// Seek implements Snapshotter.
func (r *prefixRule) Seek(t int) { r.tracker.Seek(t) }

// Options tunes the online algorithms' internal prefix-optimum tracker.
// The zero value reproduces the paper exactly.
type Options struct {
	// TrackerGamma > 1 tracks prefix optima over the γ-reduced lattice
	// instead of the full one, shrinking the per-slot work from
	// O(Π m_j) to O(Π log_γ m_j). The power-up targets then come from a
	// (2γ−1)-approximate prefix schedule; the paper's competitive proof
	// assumes exact targets, so this is a *scalable heuristic variant* —
	// experiment E10 measures how little it costs in practice.
	TrackerGamma float64
}

// NewAlgorithmA prepares Algorithm A for a fleet template. Every type must
// carry a time-independent (model.Static) cost profile — Algorithm B or C
// handles the general case — because t̄_j is derived from f_j(0) before
// the first slot arrives.
func NewAlgorithmA(types []model.ServerType) (*AlgorithmA, error) {
	return NewAlgorithmAWithOptions(types, Options{})
}

// NewAlgorithmAWithOptions is NewAlgorithmA with tracker tuning.
func NewAlgorithmAWithOptions(types []model.ServerType, opts Options) (*AlgorithmA, error) {
	for j, st := range types {
		if st.Cost == nil {
			return nil, fmt.Errorf("core: type %d has no cost profile", j)
		}
		if _, ok := st.Cost.(model.Static); !ok {
			return nil, fmt.Errorf("core: Algorithm A requires time-independent operating costs")
		}
	}
	rule, err := newPrefixRule(types, opts)
	if err != nil {
		return nil, err
	}
	a := &AlgorithmA{prefixRule: rule, types: make([]*TypeA, len(types))}
	for j, st := range types {
		a.types[j] = NewTypeA(TimeoutA(st.SwitchCost, st.Cost.At(1).Value(0)))
	}
	return a, nil
}

// Name implements Online.
func (a *AlgorithmA) Name() string { return "AlgorithmA" }

// Step implements Online.
func (a *AlgorithmA) Step(in model.SlotInput) model.Config {
	xhat := a.push(in)
	for j, st := range a.types {
		st.Step(xhat[j])
		// Fleet shrinkage (Section 4.3 extension): release the newest
		// power-ups down to the available count. x̂ respects the counts,
		// so the invariant out[j] >= x̂[j] survives; with static fleets
		// the clamp is a no-op.
		a.out[j] = st.ClampTo(in.Count(j, a.fleet[j].Count))
	}
	return a.out
}

// Timeout returns t̄_j for server type j.
func (a *AlgorithmA) Timeout(j int) int { return a.types[j].Tbar() }
