package core

import (
	"math"

	"repro/internal/model"
	"repro/internal/solver"
)

// TypeB is the per-type state machine of Algorithm B for one server type
// with time-dependent idle costs l_{t,j} = f_{t,j}(0). A server powered up
// at slot u runs for t̄_{u,j} further slots, where t̄_{u,j} is the largest
// t̄ with Σ_{v=u+1}^{u+t̄} l_v <= β — i.e. it is powered down at the first
// slot t whose accumulated idle cost since the power-up exceeds β
// (the set W_t of Algorithm 2, line 5).
//
// Because the idle-cost prefix sums are non-decreasing, power-ups expire in
// FIFO order, so the pending power-ups form a queue and each Step costs
// amortised O(1).
//
// TypeB is exported so the paper's Figure 3 can be reproduced from the
// production state machine.
type TypeB struct {
	beta float64
	t    int
	lsum float64 // L[t] = Σ_{v<=t} l_v
	x    int
	// pending power-up events: slot u and count, with L[u] snapshotted.
	events []eventB
	head   int
}

type eventB struct {
	slot  int
	count int
	lsum  float64 // L[u] at the power-up slot
}

// NewTypeB builds the state machine for switching cost beta >= 0.
func NewTypeB(beta float64) *TypeB {
	if beta < 0 {
		panic("core: negative switching cost")
	}
	return &TypeB{beta: beta}
}

// Step advances one slot with idle cost l = f_{t}(0) and prefix-optimum
// target xhat, returning the active-server count x^B_{t,j}. Power-downs
// (expirations) happen before the top-up, mirroring lines 5–9 of
// Algorithm 2.
func (s *TypeB) Step(l float64, xhat int) int {
	s.t++
	s.lsum += l
	// Expire power-ups whose accumulated idle cost Σ_{v=u+1}^{t} l_v
	// exceeds β. The set W_t contains exactly these (first crossing), and
	// FIFO order is safe because L is non-decreasing.
	for s.head < len(s.events) && s.lsum-s.events[s.head].lsum > s.beta {
		s.x -= s.events[s.head].count
		s.head++
	}
	// Drop the expired prefix once it is half the queue, so the queue
	// holds O(live) events however old the session: amortised O(1).
	if s.head > len(s.events)/2 {
		s.events = s.events[:copy(s.events, s.events[s.head:])]
		s.head = 0
	}
	if s.x <= xhat {
		if up := xhat - s.x; up > 0 {
			s.events = append(s.events, eventB{slot: s.t, count: up, lsum: s.lsum})
		}
		s.x = xhat
	}
	return s.x
}

// Active returns the current number of active servers.
func (s *TypeB) Active() int { return s.x }

// ClampTo forcibly powers down servers so at most m stay active, releasing
// the most recently powered-up servers first. Extension for time-varying
// fleet sizes; see TypeA.ClampTo.
func (s *TypeB) ClampTo(m int) int {
	for i := len(s.events) - 1; i >= s.head && s.x > m; i-- {
		drop := s.events[i].count
		if drop > s.x-m {
			drop = s.x - m
		}
		s.events[i].count -= drop
		s.x -= drop
	}
	if s.x > m {
		panic("core: ClampTo accounting mismatch")
	}
	return s.x
}

// AlgorithmB is the (2d+1+c(I))-competitive online algorithm of
// Section 3.1 for time-dependent operating cost functions, where
// c(I) = Σ_j max_t f_{t,j}(0)/β_j.
type AlgorithmB struct {
	fleet   []model.ServerType
	tracker *solver.PrefixTracker
	types   []*TypeB
	lastOpt model.Config
	optCost float64
	out     model.Config // scratch returned by Step
}

// NewAlgorithmB prepares Algorithm B for a fleet template. Per-slot cost
// functions arrive through Step; types whose SlotInputs omit costs fall
// back to the template profile.
func NewAlgorithmB(types []model.ServerType) (*AlgorithmB, error) {
	return NewAlgorithmBWithOptions(types, Options{})
}

// NewAlgorithmBWithOptions is NewAlgorithmB with tracker tuning (see
// Options).
func NewAlgorithmBWithOptions(types []model.ServerType, opts Options) (*AlgorithmB, error) {
	tracker, err := solver.NewStreamTracker(types, opts.solverOptions())
	if err != nil {
		return nil, err
	}
	b := &AlgorithmB{
		fleet:   append([]model.ServerType(nil), types...),
		tracker: tracker,
		types:   make([]*TypeB, len(types)),
		out:     make(model.Config, len(types)),
	}
	for j, st := range types {
		b.types[j] = NewTypeB(st.SwitchCost)
	}
	return b, nil
}

// Name implements Online.
func (b *AlgorithmB) Name() string { return "AlgorithmB" }

// Step implements Online.
func (b *AlgorithmB) Step(in model.SlotInput) model.Config {
	xhat, optCost, err := b.tracker.Push(in)
	if err != nil {
		panic("core: " + err.Error())
	}
	b.optCost = optCost
	b.lastOpt = append(b.lastOpt[:0], xhat...)
	for j, st := range b.types {
		l := in.Cost(j, b.fleet[j].Cost).Value(0)
		st.Step(l, xhat[j])
		// Fleet shrinkage extension; see AlgorithmA.Step.
		b.out[j] = st.ClampTo(in.Count(j, b.fleet[j].Count))
	}
	return b.out
}

// PrefixOpt returns x̂^t_t from the most recent Step.
func (b *AlgorithmB) PrefixOpt() model.Config { return b.lastOpt }

// PrefixOptCost implements OptTracking: the optimal cost of the consumed
// prefix, exact iff the tracker follows the full lattice.
func (b *AlgorithmB) PrefixOptCost() (float64, bool) { return b.optCost, b.tracker.Exact() }

// OperatingCost implements LayerCosting.
func (b *AlgorithmB) OperatingCost(x model.Config) (float64, bool) { return b.tracker.G(x) }

// CI returns the instance-dependent constant c(I) = Σ_j max_t l_{t,j}/β_j
// appearing in Theorem 13's competitive ratio 2d+1+c(I). Types with
// β_j = 0 and some positive idle cost make c(I) infinite (Algorithm C's
// subdivision assumes β_j > 0); this is reported faithfully.
func CI(ins *model.Instance) float64 {
	c := 0.0
	for _, st := range ins.Types {
		maxRatio := 0.0
		for t := 1; t <= ins.T(); t++ {
			l := st.Cost.At(t).Value(0)
			if st.SwitchCost > 0 {
				if r := l / st.SwitchCost; r > maxRatio {
					maxRatio = r
				}
			} else if l > 0 {
				maxRatio = math.Inf(1)
			}
		}
		c += maxRatio
	}
	return c
}
