package core

import (
	"fmt"
	"math"

	"repro/internal/costfn"
	"repro/internal/model"
)

// AlgorithmC is the (2d+1+ε)-competitive online algorithm of Section 3.2
// for time-dependent operating cost functions. It splits each arriving
// slot t into
//
//	ñ_t = ⌈ (d/ε) · max_j l_{t,j}/β_j ⌉   (at least 1)
//
// sub-slots carrying cost f_{t,j}/ñ_t, feeds them to an embedded
// Algorithm B — the modified instance Ĩ has constant c(Ĩ) <= d/(d/ε) = ε —
// and keeps, per original slot, the sub-slot configuration x^B_{µ(t)} of
// minimal operating cost (Algorithm 3). Lemma 14 shows the projection
// never increases the cost.
//
// The subdivision count ñ_t depends only on slot-t data, so the push-based
// implementation is a valid online algorithm with no materialised modified
// instance at all: sub-slots are synthesised and consumed on the fly.
type AlgorithmC struct {
	fleet []model.ServerType
	eps   float64
	inner *AlgorithmB
	t     int // original slots processed
	u     int // sub-slots pushed into the inner algorithm
	maxN  int

	cur   model.SlotInput // the arrived slot, resolved at t
	best  model.Config    // scratch returned by Step
	costs []costfn.Func   // scratch: scaled sub-slot cost functions
}

// NewAlgorithmC prepares Algorithm C for accuracy parameter eps > 0.
// Every type needs β_j > 0: with a free power-up, the subdivision count
// ñ_t is unbounded (and the 2d+1+c(I) analysis of Algorithm B already
// degenerates). MaxSubdivision caps ñ_t defensively; slots that would
// exceed it are rejected rather than silently degraded.
func NewAlgorithmC(types []model.ServerType, eps float64) (*AlgorithmC, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("core: Algorithm C needs eps > 0, got %g", eps)
	}
	for j, st := range types {
		if st.SwitchCost <= 0 {
			return nil, fmt.Errorf("core: Algorithm C requires β_j > 0 (type %d has %g)", j, st.SwitchCost)
		}
	}
	inner, err := NewAlgorithmB(types)
	if err != nil {
		return nil, err
	}
	return &AlgorithmC{
		fleet: append([]model.ServerType(nil), types...),
		eps:   eps,
		inner: inner,
		maxN:  1,
		best:  make(model.Config, len(types)),
		costs: make([]costfn.Func, len(types)),
	}, nil
}

// MaxSubdivision bounds ñ_t; beyond this the modified instance would be
// impractically large. The cap corresponds to c(Ĩ) contributions below
// ε/d per slot for any reasonable instance.
const MaxSubdivision = 1 << 20

// Name implements Online.
func (c *AlgorithmC) Name() string { return fmt.Sprintf("AlgorithmC(eps=%g)", c.eps) }

// Step implements Online: it synthesises the ñ_t sub-slots of the arrived
// slot, drives the embedded Algorithm B through them, and returns
// x^C_t = x^B_{µ(t)}, µ(t) = argmin_{u ∈ U(t)} g̃_u(x^B_u).
func (c *AlgorithmC) Step(in model.SlotInput) model.Config {
	c.t++
	if in.T != 0 && in.T != c.t {
		panic(fmt.Sprintf("core: Algorithm C fed slot %d out of order, want %d", in.T, c.t))
	}
	model.ResolveSlot(c.fleet, c.t, in, &c.cur)
	d := float64(len(c.fleet))
	ratio := 0.0
	for j, f := range c.cur.Costs {
		if r := f.Value(0) / c.fleet[j].SwitchCost; r > ratio {
			ratio = r
		}
	}
	n := int(math.Ceil(d / c.eps * ratio))
	if n < 1 {
		n = 1
	}
	if n > MaxSubdivision {
		panic(fmt.Sprintf("core: slot %d needs ñ_t = %d sub-slots (cap %d); idle costs are too large relative to switching costs for eps=%g",
			c.t, n, MaxSubdivision, c.eps))
	}
	if n > c.maxN {
		c.maxN = n
	}

	factor := 1.0 / float64(n)
	for j, f := range c.cur.Costs {
		c.costs[j] = costfn.Scaled{F: f, Factor: factor}
	}
	bestVal := math.Inf(1)
	for k := 0; k < n; k++ {
		c.u++
		x := c.inner.Step(model.SlotInput{T: c.u, Lambda: in.Lambda, Costs: c.costs, Counts: c.cur.Counts})
		// All sub-slots of an original slot have identical g̃_u up to the
		// 1/ñ_t factor, so comparing g̃ values is comparing g values. The
		// inner B's exact tracker just evaluated g̃_u over a lattice that
		// holds x^B_u, so its layer answers bit-identically to a solve.
		v, ok := c.inner.tracker.G(x)
		if !ok {
			panic(fmt.Sprintf("core: sub-slot %d configuration %v is off its tracker's lattice", c.u, x))
		}
		if v < bestVal {
			bestVal = v
			copy(c.best, x)
		}
	}
	return c.best
}

// MaxN returns the largest ñ_t used so far.
func (c *AlgorithmC) MaxN() int { return c.maxN }

// RatioBound returns the proven competitive ratio 2d+1+ε of Theorem 15.
func (c *AlgorithmC) RatioBound() float64 { return 2*float64(len(c.fleet)) + 1 + c.eps }

// RatioBoundA returns Theorem 8's bound 2d+1 for instances with
// time-independent costs, for comparison tables.
func RatioBoundA(ins *model.Instance) float64 { return 2*float64(ins.D()) + 1 }

// RatioBoundB returns Theorem 13's bound 2d+1+c(I).
func RatioBoundB(ins *model.Instance) float64 {
	return 2*float64(ins.D()) + 1 + CI(ins)
}
