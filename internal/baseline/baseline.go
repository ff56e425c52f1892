// Package baseline provides comparison algorithms for the experiments:
// the static and memoryless strategies a data-center operator might deploy
// without the paper's machinery, plus the homogeneous lazy-capacity
// baseline from the prior literature and a semi-online lookahead control.
// All of them implement core.Online and are fed slot data push-style.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/numeric"
)

// compile-time interface checks.
var (
	_ core.Online   = (*AllOn)(nil)
	_ core.Online   = (*LoadTracking)(nil)
	_ core.Online   = (*SkiRental)(nil)
	_ core.Online   = (*LCP)(nil)
	_ core.Online   = (*Lookahead)(nil)
	_ core.Buffered = (*Lookahead)(nil)
)

// resolveInto materialises the input's template fallbacks into the given
// scratch slices and returns a fully-resolved SlotInput.
func resolveInto(in model.SlotInput, fleet []model.ServerType, costs []costfn.Func, counts []int) model.SlotInput {
	for j := range fleet {
		costs[j] = in.Cost(j, fleet[j].Cost)
		counts[j] = in.Count(j, fleet[j].Count)
	}
	return model.SlotInput{T: in.T, Lambda: in.Lambda, Costs: costs, Counts: counts}
}

// AllOn keeps the whole fleet powered for the entire horizon: the
// "static provisioning" strategy right-sizing is measured against. With
// time-varying sizes it keeps every available server powered.
type AllOn struct {
	fleet []model.ServerType
	out   model.Config
}

// NewAllOn builds the baseline for a fleet template.
func NewAllOn(types []model.ServerType) (*AllOn, error) {
	if err := model.ValidateFleet(types); err != nil {
		return nil, err
	}
	return &AllOn{
		fleet: append([]model.ServerType(nil), types...),
		out:   make(model.Config, len(types)),
	}, nil
}

// Name implements core.Online.
func (a *AllOn) Name() string { return "AllOn" }

// Step implements core.Online.
func (a *AllOn) Step(in model.SlotInput) model.Config {
	for j := range a.out {
		a.out[j] = in.Count(j, a.fleet[j].Count)
	}
	return a.out
}

// LoadTracking picks, every slot, a configuration minimising the slot's
// operating cost g_t(x) while ignoring switching costs entirely — the
// memoryless instantaneous optimiser. It thrashes on bursty loads, which
// is exactly what the experiments need it to demonstrate. Ties break
// toward the lexicographically smallest configuration.
type LoadTracking struct {
	fleet  []model.ServerType
	eval   *model.Evaluator
	g      *grid.Grid   // lattice cached while the counts stay unchanged
	gm     []int        // counts the cached lattice was built for
	cfg    model.Config // decode scratch
	out    model.Config // scratch returned by Step
	counts []int        // the slot's resolved counts
}

// NewLoadTracking builds the baseline for a fleet template.
func NewLoadTracking(types []model.ServerType) (*LoadTracking, error) {
	if err := model.ValidateFleet(types); err != nil {
		return nil, err
	}
	d := len(types)
	return &LoadTracking{
		fleet:  append([]model.ServerType(nil), types...),
		eval:   model.NewEvaluator(&model.Instance{Types: types}),
		cfg:    make(model.Config, d),
		out:    make(model.Config, d),
		counts: make([]int, d),
	}, nil
}

// Name implements core.Online.
func (l *LoadTracking) Name() string { return "LoadTracking" }

// lattice returns the slot's full configuration lattice, rebuilding only
// when the counts changed (static fleets keep one grid for the whole run).
func (l *LoadTracking) lattice(counts []int) *grid.Grid {
	if l.g == nil || !numeric.EqualInts(counts, l.gm) {
		l.g = grid.NewFull(counts)
		l.gm = append(l.gm[:0], counts...)
	}
	return l.g
}

// Step implements core.Online: it scans the slot's full lattice for the
// cheapest configuration.
func (l *LoadTracking) Step(in model.SlotInput) model.Config {
	for j := range l.counts {
		l.counts[j] = in.Count(j, l.fleet[j].Count)
	}
	g := l.lattice(l.counts)
	best := math.Inf(1)
	bestIdx := -1
	l.eval.Prepare(in)
	for idx := 0; idx < g.Size(); idx++ {
		g.Decode(idx, l.cfg)
		if v := l.eval.GPrepared(l.cfg); v < best {
			best = v
			bestIdx = idx
		}
	}
	if bestIdx < 0 {
		panic(fmt.Sprintf("baseline: no feasible configuration at slot %d", in.T))
	}
	g.Decode(bestIdx, l.out)
	return l.out
}

// SkiRental is the classic timeout heuristic: follow the load-tracking
// target upward immediately, but keep surplus servers powered until their
// accumulated idle cost since becoming surplus exceeds the switching cost
// β_j (per type), then release them. It is Algorithm B's power-down rule
// glued to a memoryless power-up rule — competitive in neither sense, but
// the natural operator policy.
type SkiRental struct {
	lt    *LoadTracking
	fleet []model.ServerType
	x     model.Config
	acc   []float64 // accumulated idle cost while surplus, per type
}

// NewSkiRental builds the baseline for a fleet template.
func NewSkiRental(types []model.ServerType) (*SkiRental, error) {
	lt, err := NewLoadTracking(types)
	if err != nil {
		return nil, err
	}
	return &SkiRental{
		lt:    lt,
		fleet: lt.fleet,
		x:     make(model.Config, len(types)),
		acc:   make([]float64, len(types)),
	}, nil
}

// Name implements core.Online.
func (s *SkiRental) Name() string { return "SkiRental" }

// Step implements core.Online.
func (s *SkiRental) Step(in model.SlotInput) model.Config {
	target := s.lt.Step(in) // shares the per-slot lattice scan
	for j := range s.x {
		// Respect shrinking fleets before anything else.
		if m := in.Count(j, s.fleet[j].Count); s.x[j] > m {
			s.x[j] = m
			s.acc[j] = 0
		}
		switch {
		case s.x[j] < target[j]:
			s.x[j] = target[j]
			s.acc[j] = 0
		case s.x[j] == target[j]:
			s.acc[j] = 0
		default: // surplus servers: rent until the budget is spent
			s.acc[j] += in.Cost(j, s.fleet[j].Cost).Value(0)
			if s.acc[j] > s.fleet[j].SwitchCost {
				s.x[j] = target[j]
				s.acc[j] = 0
			}
		}
	}
	return s.x
}
