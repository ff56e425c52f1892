package solver

import (
	"fmt"
	"math"
	"slices"

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
// predecessor per slot (Window.sweep). The recorded layers take
// O(T·|M|) memory; OptimalCost returns the cost alone in O(|M|).
func Solve(ins *model.Instance, opts Options) (*Result, error) {
	tr, err := NewPrefixTracker(ins, opts)
	if err != nil {
		return nil, err
	}
	w := Window{tr: tr}
	if _, err := w.sweep(ins.T(), func(int) error { tr.next(); return nil }); err != nil {
		return nil, err
	}
	d, maxSize := ins.D(), 0
	sched := make(model.Schedule, ins.T())
	for t, g := range w.grids {
		sched[t] = model.Config(w.cells[t*d : (t+1)*d : (t+1)*d])
		maxSize = max(maxSize, g.Size())
	}
	return &Result{
		Schedule:    sched,
		Breakdown:   model.NewEvaluator(ins).Cost(sched),
		LatticeSize: maxSize,
	}, nil
}

// Window plans receding-horizon control's windows: each Plan is an
// offline solve of a few slots that starts from a held configuration
// instead of all-off. A Window keeps its stream tracker and its recorded
// layers for its life, so a w-slot plan costs O(w·d·|M|) plus the
// dispatch solves, which the layer memo shares between the overlapping
// windows of a stream.
type Window struct {
	tr    *PrefixTracker
	arena []float64    // every layer of the last sweep, back to back
	grids []*grid.Grid // and their lattices
	cells []int        // its schedule: slot i at [i·d, (i+1)·d), then x_{n+1} = 0
}

// NewWindow prepares a planner for the fleet template, on the exact
// lattice and evaluating serially.
func NewWindow(types []model.ServerType) (*Window, error) {
	tr, err := NewStreamTracker(types, Options{})
	if err != nil {
		return nil, err
	}
	return &Window{tr: tr}, nil
}

// Plan returns the first configuration of an optimal schedule for the
// slots, held at start just before them, and the schedule's cost:
// Σ_j β_j (x_j − start_j)⁺ into the first slot, operating and switching
// costs within, and a free power-down after the last. The slots follow
// slot slots[0].T − 1 in order (a zero T reads as 1). Ties go as Solve's
// do: the last slot's lowest-index argmin, then lowest-index
// predecessors. The configuration is scratch, valid until the next Plan.
func (w *Window) Plan(start model.Config, slots []model.SlotInput) (model.Config, float64, error) {
	p := w.tr
	if len(slots) == 0 || len(start) != len(p.start) {
		return nil, 0, fmt.Errorf("solver: no window of %d slots from %v on a %d-type fleet", len(slots), start, len(p.start))
	}
	p.Seek(max(slots[0].T-1, 0))
	p.t = 0
	copy(p.start, start)
	cost, err := w.sweep(len(slots), func(i int) error {
		_, _, err := p.Push(slots[i])
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return w.cells[:len(start):len(start)], cost, nil
}

// sweep steps the tracker n times, push(i) feeding its i-th slot, and
// records each layer; then it walks back from the free power-down to
// x_{n+1} = 0, leaving an optimal schedule in w.cells. It returns the
// schedule's cost, the minimum of the last layer.
func (w *Window) sweep(n int, push func(i int) error) (float64, error) {
	tr := w.tr
	w.arena, w.grids = w.arena[:0], w.grids[:0]
	for i := 0; i < n; i++ {
		if err := push(i); err != nil {
			return 0, err
		}
		if w.arena == nil {
			w.arena, w.grids = make([]float64, 0, n*len(tr.layer)), make([]*grid.Grid, 0, n)
		}
		w.arena, w.grids = append(w.arena, tr.layer...), append(w.grids, tr.curGrid)
	}
	if math.IsInf(tr.opt, 1) {
		return 0, fmt.Errorf("solver: instance is infeasible (no finite schedule)")
	}

	d := len(tr.betas)
	w.cells = slices.Grow(w.cells[:0], (n+1)*d)[:(n+1)*d]
	next := model.Config(w.cells[n*d:])
	clear(next)
	end := len(w.arena)
	for t := n - 1; t >= 0; t-- {
		g := w.grids[t]
		layer := w.arena[end-g.Size() : end]
		end -= g.Size()
		x := model.Config(w.cells[t*d : (t+1)*d : (t+1)*d])
		g.Decode(predecessor(layer, g, tr.betas, next, tr.cand, tr.cfg), x) // the step's scratch is free
		next = x
	}
	return tr.opt, nil
}

// predecessor returns the index on g of the argmin over x' of
// layer[x'] + Σ_j β_j (next_j − x'_j)^+ — the configuration an optimal
// schedule holds before moving to next — with ties towards the lowest
// index. It walks the lattice line by line, its levels of every type but
// the last in lvl (nextLine) and their power-ups to next in ups, instead
// of decoding each cell; the terms still add in type order, so the sums
// keep their bits.
func predecessor(layer []float64, g *grid.Grid, betas []float64, next, lvl, ups model.Config) int {
	d := g.D()
	last, nextL, betaL := g.Axis(d-1), next[d-1], betas[d-1]
	lvl, ups = lvl[:d-1], ups[:d-1]
	clear(lvl)
	bIdx, bVal := 0, math.Inf(1)
	for base := 0; base < len(layer); base += len(last) {
		for j, l := range lvl {
			ups[j] = next[j] - g.Axis(j)[l]
		}
		for k, v := range last {
			c := layer[base+k]
			for j, up := range ups {
				if up > 0 {
					c += betas[j] * float64(up)
				}
			}
			if up := nextL - v; up > 0 {
				c += betaL * float64(up)
			}
			if c < bVal {
				bVal, bIdx = c, base+k
			}
		}
		nextLine(g, lvl)
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
