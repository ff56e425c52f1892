package solver

import (
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/numeric"
)

// slotFront is the per-slot front end of every layer evaluation in
// production: the accumulator holding the slot being evaluated, the
// slot's lattice and the previous slot's (one grid while the counts stay
// the same), and the layer evaluator, which fills the slot's g-layer
// through the memo, the prepared dispatch table and the line walk.
// PrefixTracker embeds one and adds the DP; Layer is one alone.
type slotFront struct {
	ins               *model.Instance // acc.Instance(): the slot being evaluated, as slot 1
	acc               *model.Accumulator
	le                *layerEvaluator
	gamma             float64
	prevGrid, curGrid *grid.Grid
	curCounts         []int // the counts curGrid was built for
}

// newSlotFront builds the front end for a fleet template; curCounts
// grows in counts, of capacity len(types), which the caller carves from
// its own scratch.
func newSlotFront(types []model.ServerType, opts Options, counts []int) (slotFront, error) {
	acc, err := model.NewAccumulator(types)
	if err != nil {
		return slotFront{}, err
	}
	return slotFront{
		ins:       acc.Instance(),
		acc:       acc,
		le:        newLayerEvaluator(acc.Instance(), opts),
		gamma:     opts.Gamma,
		curCounts: counts,
	}, nil
}

// push validates one slot and makes it the one evaluated, moving the
// lattice pair onto its counts. On error nothing changes.
func (f *slotFront) push(in model.SlotInput) error {
	if err := f.acc.Push(in); err != nil {
		return err
	}
	if counts := f.ins.Counts[0]; f.curGrid == nil || !numeric.EqualInts(counts, f.curCounts) {
		f.prevGrid, f.curGrid = f.curGrid, f.lattice(counts)
		f.curCounts = append(f.curCounts[:0], counts...)
	} else {
		f.prevGrid = f.curGrid
	}
	return nil
}

// lattice builds the lattice for one slot's counts.
func (f *slotFront) lattice(counts []int) *grid.Grid {
	if f.gamma <= 1 {
		return grid.NewFull(counts)
	}
	axes := make([]grid.Axis, len(counts))
	for j, m := range counts {
		axes[j] = grid.ReducedAxis(m, f.gamma)
	}
	return grid.New(axes)
}

// Layer evaluates each pushed slot's operating costs g_t(x) over the
// slot's whole exact lattice, through the prefix tracker's front end.
// The memoryless baselines read g_t from it.
type Layer struct{ slotFront }

// NewLayer builds a Layer for the fleet template.
func NewLayer(types []model.ServerType) (*Layer, error) {
	f, err := newSlotFront(types, Options{}, make([]int, 0, len(types)))
	if err != nil {
		return nil, err
	}
	return &Layer{f}, nil
}

// Push validates one slot (model.Accumulator.Push) and returns its
// g-layer with its lattice: cell i holds g_t at lattice index i, +Inf
// where the capacity falls short of the demand. The layer is read-only —
// it may be a memo entry other callers share — and both are valid until
// the next Push. On error the Layer is unchanged.
func (l *Layer) Push(in model.SlotInput) ([]float64, *grid.Grid, error) {
	if err := l.push(in); err != nil {
		return nil, nil, err
	}
	g := l.curGrid
	return l.le.begin(g.Size(), 1, g, true), g, nil
}
