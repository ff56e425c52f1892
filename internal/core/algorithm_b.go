package core

import (
	"math"

	"repro/internal/model"
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
	powerUps
	beta float64
	lsum float64 // L[t] = Σ_{v<=t} l_v; each power-up is marked with L[u]
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
	for s.head < len(s.events) && s.lsum-s.events[s.head].mark > s.beta {
		s.pop()
	}
	return s.topUp(xhat, s.lsum)
}

// AlgorithmB is the (2d+1+c(I))-competitive online algorithm of
// Section 3.1 for time-dependent operating cost functions, where
// c(I) = Σ_j max_t f_{t,j}(0)/β_j.
type AlgorithmB struct {
	prefixRule
	types []*TypeB
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
	rule, err := newPrefixRule(types, opts)
	if err != nil {
		return nil, err
	}
	b := &AlgorithmB{prefixRule: rule, types: make([]*TypeB, len(types))}
	for j, st := range types {
		b.types[j] = NewTypeB(st.SwitchCost)
	}
	return b, nil
}

// Name implements Online.
func (b *AlgorithmB) Name() string { return "AlgorithmB" }

// Step implements Online. It reads the slot's idle costs and counts as
// its tracker resolved them, at the tracker's own slot index.
func (b *AlgorithmB) Step(in model.SlotInput) model.Config {
	xhat := b.push(in)
	cur := b.tracker.Slot()
	for j, st := range b.types {
		st.Step(cur.Costs[j].Value(0), xhat[j])
		// Fleet shrinkage extension; see AlgorithmA.Step.
		b.out[j] = st.ClampTo(cur.Counts[j])
	}
	return b.out
}

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
