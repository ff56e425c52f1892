// Package baseline provides comparison algorithms for the experiments:
// the static and memoryless strategies a data-center operator might deploy
// without the paper's machinery, plus the homogeneous lazy-capacity
// baseline from the prior literature and a semi-online lookahead control.
// All of them implement core.Online and are fed slot data push-style.
package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/solver"
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
// toward the lexicographically smallest configuration. It reads g_t
// through solver.Layer, so a slot the layer memo holds costs no dispatch
// solve.
type LoadTracking struct {
	layer *solver.Layer
	out   model.Config // scratch returned by Step
}

// NewLoadTracking builds the baseline for a fleet template.
func NewLoadTracking(types []model.ServerType) (*LoadTracking, error) {
	layer, err := solver.NewLayer(types)
	if err != nil {
		return nil, err
	}
	return &LoadTracking{layer: layer, out: make(model.Config, len(types))}, nil
}

// Name implements core.Online.
func (l *LoadTracking) Name() string { return "LoadTracking" }

// Step implements core.Online: it returns the lowest-index argmin of the
// slot's g-layer.
func (l *LoadTracking) Step(in model.SlotInput) model.Config {
	gl, g, err := l.layer.Push(in)
	if err != nil {
		panic(fmt.Sprintf("baseline: %v", err))
	}
	best, bestIdx := math.Inf(1), -1
	for idx, v := range gl {
		if v < best {
			best, bestIdx = v, idx
		}
	}
	if bestIdx < 0 {
		panic(fmt.Sprintf("baseline: no feasible configuration at slot %d", l.layer.Slot().T))
	}
	g.Decode(bestIdx, l.out)
	return l.out
}

// SkiRental is the classic timeout heuristic: follow the load-tracking
// target upward immediately, but keep surplus servers powered until their
// accumulated idle cost since becoming surplus exceeds the episode's
// budget, then release them. It is Algorithm B's power-down rule glued to
// a memoryless power-up rule — competitive in neither sense, but the
// natural operator policy. Built by NewSkiRental, the budget is the
// switching cost β_j. Built by NewRandomizedTimeout, it is the classic
// randomized ski-rental policy: each surplus episode draws its budget
// from the optimal density e^{x/β}/(β(e−1)) on [0, β], which makes the
// per-server rent-or-buy subproblem e/(e−1) ≈ 1.58-competitive instead
// of 2 against an oblivious adversary, the randomized counterpart the
// paper's discussion of its randomized homogeneous algorithm motivates.
// It is seeded explicitly, so experiments remain reproducible.
type SkiRental struct {
	lt    *LoadTracking
	fleet []model.ServerType
	rng   *rand.Rand // draws the episode budgets; nil for the deterministic β_j
	x     model.Config
	acc   []float64 // accumulated idle cost while surplus, per type
	cut   []float64 // the current surplus episode's budget, −1 when none is open
}

// NewSkiRental builds the deterministic baseline for a fleet template.
func NewSkiRental(types []model.ServerType) (*SkiRental, error) {
	return newSkiRental(types, nil)
}

// NewRandomizedTimeout builds the randomized variant with the given seed.
func NewRandomizedTimeout(types []model.ServerType, seed int64) (*SkiRental, error) {
	return newSkiRental(types, rand.New(rand.NewSource(seed)))
}

func newSkiRental(types []model.ServerType, rng *rand.Rand) (*SkiRental, error) {
	lt, err := NewLoadTracking(types)
	if err != nil {
		return nil, err
	}
	d := len(types)
	s := &SkiRental{
		lt:    lt,
		fleet: append([]model.ServerType(nil), types...),
		rng:   rng,
		x:     make(model.Config, d),
		acc:   make([]float64, d),
		cut:   make([]float64, d),
	}
	for j := range s.cut {
		s.cut[j] = -1
	}
	return s, nil
}

// Name implements core.Online.
func (s *SkiRental) Name() string {
	if s.rng != nil {
		return "RandomizedTimeout"
	}
	return "SkiRental"
}

// Step implements core.Online. It reads the slot's idle costs and counts
// as its layer resolved them, at the layer's own slot index.
func (s *SkiRental) Step(in model.SlotInput) model.Config {
	target := s.lt.Step(in) // the memoryless optimum, read off the slot's g-layer
	cur := s.lt.layer.Slot()
	for j := range s.x {
		// Respect shrinking fleets before anything else.
		if m := cur.Counts[j]; s.x[j] > m {
			s.x[j] = m
			s.endEpisode(j)
		}
		switch {
		case s.x[j] < target[j]:
			s.x[j] = target[j]
			s.endEpisode(j)
		case s.x[j] == target[j]:
			s.endEpisode(j)
		default: // surplus servers: rent until the budget is spent
			if s.cut[j] < 0 {
				s.cut[j] = s.budget(s.fleet[j].SwitchCost)
			}
			s.acc[j] += cur.Costs[j].Value(0)
			if s.acc[j] > s.cut[j] {
				s.x[j] = target[j]
				s.endEpisode(j)
			}
		}
	}
	return s.x
}

func (s *SkiRental) endEpisode(j int) {
	s.acc[j] = 0
	s.cut[j] = -1
}

// budget returns a new surplus episode's budget for switching cost β:
// β itself, or a draw from the optimal ski-rental density by inverse
// transform, X = β·ln(1 + (e−1)·U).
func (s *SkiRental) budget(beta float64) float64 {
	if s.rng == nil {
		return beta
	}
	if beta <= 0 {
		return 0
	}
	u := s.rng.Float64()
	return beta * math.Log(1+(math.E-1)*u)
}
