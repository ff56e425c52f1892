package solver

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/model"
)

// Options controls the offline solvers and the prefix trackers they
// sweep with.
type Options struct {
	// Gamma selects the lattice. Values <= 1 (including 0) solve exactly
	// on the full lattice M (Section 4.1). Values > 1 solve on the
	// γ-reduced lattice M^γ (Section 4.2), yielding a (2γ−1)-approximation
	// by Theorem 16.
	Gamma float64

	// Workers fans each layer's operating-cost evaluations (the convex
	// dispatch programs dominating the runtime) out over goroutines
	// started for that layer: 0 or 1 evaluates serially, AutoWorkers uses
	// one worker per CPU. Results are deterministic regardless of the
	// worker count.
	Workers int
}

// Result is an offline solver's output.
type Result struct {
	// Schedule is the computed schedule, feasible for the instance.
	Schedule model.Schedule
	// Breakdown decomposes the schedule's cost.
	Breakdown model.CostBreakdown
	// LatticeSize is the number of configurations per slot examined by
	// the DP (the maximum over slots when sizes vary over time). It
	// drives the runtime bound of Theorems 21/22.
	LatticeSize int
}

// Cost returns the schedule's total cost.
func (r *Result) Cost() float64 { return r.Breakdown.Total() }

// SolveOptimal computes an optimal schedule via the graph/DP of
// Section 4.1.
func SolveOptimal(ins *model.Instance) (*Result, error) {
	return Solve(ins, Options{})
}

// SolveApprox computes a (1+ε)-approximation by Theorem 21: it runs the
// reduced-lattice solver with γ = 1 + ε/2, so 2γ−1 = 1+ε.
func SolveApprox(ins *model.Instance, eps float64) (*Result, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("solver: approximation needs eps > 0, got %g", eps)
	}
	return Solve(ins, Options{Gamma: 1 + eps/2})
}

// Solve runs the layered shortest-path DP with the given options: one
// forward sweep of a PrefixTracker over the instance, recording every
// layer and its lattice, then a backward walk that re-finds an argmin
// predecessor per slot. The recorded layers take O(T·|M|) memory;
// OptimalCost returns the cost alone in O(|M|).
func Solve(ins *model.Instance, opts Options) (*Result, error) {
	tr, err := NewPrefixTracker(ins, opts)
	if err != nil {
		return nil, err
	}
	T, d := ins.T(), ins.D()
	var arena []float64 // every layer, back to back
	grids := make([]*grid.Grid, 0, T)
	for !tr.Done() {
		tr.next()
		if arena == nil {
			arena = make([]float64, 0, T*len(tr.layer))
		}
		arena, grids = append(arena, tr.layer...), append(grids, tr.curGrid)
	}
	// The final power-down to x_{T+1} = 0 is free, so the optimal cost is
	// the minimum over the last layer.
	if _, best := argmin(tr.layer); math.IsInf(best, 1) {
		return nil, fmt.Errorf("solver: instance is infeasible (no finite schedule)")
	}

	// Backward walk from x_{T+1} = 0.
	sched := make(model.Schedule, T)
	cells := make([]int, (T+1)*d)
	next, scratch := model.Config(cells[T*d:]), make(model.Config, d)
	maxSize, end := 0, len(arena)
	for t := T; t >= 1; t-- {
		g := grids[t-1]
		layer := arena[end-g.Size() : end]
		end -= g.Size()
		x := model.Config(cells[(t-1)*d : t*d : t*d])
		g.Decode(predecessor(layer, g, tr.betas, next, scratch), x)
		sched[t-1], next = x, x
		maxSize = max(maxSize, g.Size())
	}

	return &Result{
		Schedule:    sched,
		Breakdown:   model.NewEvaluator(ins).Cost(sched),
		LatticeSize: maxSize,
	}, nil
}

// predecessor returns the index on g of the argmin over x' of
// layer[x'] + Σ_j β_j (next_j − x'_j)^+ — the configuration an optimal
// schedule holds before moving to next — with ties towards the lowest
// index. scratch decodes the candidates.
func predecessor(layer []float64, g *grid.Grid, betas []float64, next, scratch model.Config) int {
	bIdx, bVal := 0, math.Inf(1)
	for i, c := range layer {
		g.Decode(i, scratch)
		for j, beta := range betas {
			if up := next[j] - scratch[j]; up > 0 {
				c += beta * float64(up)
			}
		}
		if c < bVal {
			bVal, bIdx = c, i
		}
	}
	return bIdx
}

// OptimalCost returns only the optimal total cost (no schedule); it avoids
// storing DP layers, so memory is O(|M|) instead of O(T·|M|).
func OptimalCost(ins *model.Instance) (float64, error) {
	tr, err := NewPrefixTracker(ins, Options{})
	if err != nil {
		return 0, err
	}
	var last float64
	for !tr.Done() {
		_, last = tr.next()
	}
	if math.IsInf(last, 1) {
		return 0, fmt.Errorf("solver: instance is infeasible")
	}
	return last, nil
}

// argmin returns the lowest index attaining the minimum value.
func argmin(xs []float64) (int, float64) {
	bi, bv := 0, math.Inf(1)
	for i, v := range xs {
		if v < bv {
			bi, bv = i, v
		}
	}
	return bi, bv
}
