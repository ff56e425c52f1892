package solver

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/model"
)

// Options controls the offline solvers and the prefix trackers they
// sweep with. LowMemory concerns Solve alone.
type Options struct {
	// Gamma selects the lattice. Values <= 1 (including 0) solve exactly
	// on the full lattice M (Section 4.1). Values > 1 solve on the
	// γ-reduced lattice M^γ (Section 4.2), yielding a (2γ−1)-approximation
	// by Theorem 16.
	Gamma float64

	// Workers fans the per-layer operating-cost evaluations (the convex
	// dispatch programs dominating the runtime) out over a goroutine
	// pool: 0 or 1 evaluates serially, AutoWorkers uses one worker per
	// CPU. Results are deterministic regardless of the worker count.
	Workers int

	// LowMemory reconstructs the schedule from blocks of ⌈√T⌉ slots,
	// recomputing each block from its saved start during the backward
	// walk: memory drops from O(T·|M|) to O(√T·|M|) for one extra forward
	// sweep. Results are identical to the default path.
	LowMemory bool

	// NoMemo disables the process-global operating-cost layer memo (see
	// gcache.go). Results are identical either way; the switch exists for
	// differential testing and memory-austere runs.
	NoMemo bool
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
// forward sweep of a PrefixTracker over the instance, recording the layers
// and their lattices, then a backward walk that re-finds an argmin
// predecessor per slot. The sweep is cut into blocks of span slots — the
// whole horizon by default, ⌈√T⌉ under LowMemory. Only the last block's
// layers survive the forward sweep; every earlier block is recomputed
// from its saved start state (AppendState) when the walk reaches it, by
// the same tracker rewound there.
func Solve(ins *model.Instance, opts Options) (*Result, error) {
	tr, err := NewPrefixTracker(ins, opts)
	if err != nil {
		return nil, err
	}
	defer tr.le.close()
	T, d := ins.T(), ins.D()
	span := T
	if opts.LowMemory {
		span = int(math.Ceil(math.Sqrt(float64(T))))
	}

	var (
		starts []byte       // tracker states before each block's first slot, back to back
		ends   []int        // block b's state is starts[ends[b-1]:ends[b]]
		arena  []float64    // the current block's layers, back to back
		grids  []*grid.Grid // their lattices
	)
	for first := 1; first <= T; first += span {
		starts = tr.AppendState(starts)
		ends = append(ends, len(starts))
		arena, grids = record(tr, span, arena[:0], grids[:0])
	}
	// The final power-down to x_{T+1} = 0 is free, so the optimal cost is
	// the minimum over the last layer.
	if _, best := argmin(tr.layer); math.IsInf(best, 1) {
		return nil, fmt.Errorf("solver: instance is infeasible (no finite schedule)")
	}

	// Backward walk from x_{T+1} = 0, block by block.
	sched := make(model.Schedule, T)
	cells := make([]int, (T+1)*d)
	next, scratch := model.Config(cells[T*d:]), make(model.Config, d)
	maxSize := 0
	for b := len(ends) - 1; b >= 0; b-- {
		first := b*span + 1
		if b < len(ends)-1 {
			from := 0
			if b > 0 {
				from = ends[b-1]
			}
			if err := tr.rewind(first-1, starts[from:ends[b]]); err != nil {
				return nil, err
			}
			arena, grids = record(tr, span, arena[:0], grids[:0])
		}
		end := len(arena)
		for t := first + len(grids) - 1; t >= first; t-- {
			g := grids[t-first]
			layer := arena[end-g.Size() : end]
			end -= g.Size()
			x := model.Config(cells[(t-1)*d : t*d : t*d])
			g.Decode(predecessor(layer, g, tr.betas, next, scratch), x)
			sched[t-1], next = x, x
			maxSize = max(maxSize, g.Size())
		}
	}

	return &Result{
		Schedule:    sched,
		Breakdown:   model.NewEvaluator(ins).Cost(sched),
		LatticeSize: maxSize,
	}, nil
}

// record advances tr by up to n slots, stopping at the end of its
// instance, and appends each layer to arena and its lattice to grids.
func record(tr *PrefixTracker, n int, arena []float64, grids []*grid.Grid) ([]float64, []*grid.Grid) {
	for ; n > 0 && !tr.Done(); n-- {
		tr.next()
		if cap(arena) == 0 {
			arena, grids = make([]float64, 0, n*len(tr.layer)), make([]*grid.Grid, 0, n)
		}
		arena, grids = append(arena, tr.layer...), append(grids, tr.curGrid)
	}
	return arena, grids
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
