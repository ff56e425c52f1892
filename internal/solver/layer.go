package solver

import (
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/numeric"
)

// slotFront is the per-slot front end of every layer evaluation in
// production: the slot being evaluated, checked and resolved at its
// absolute index, the slot's lattice and the previous slot's (one grid
// while the counts stay the same), and the layer evaluator, which fills
// the slot's g-layer through the memo, the prepared dispatch table and
// the line walk. PrefixTracker embeds one and adds the DP; Layer is one
// alone.
type slotFront struct {
	fleet             []model.ServerType // the fleet template
	cur               model.SlotInput    // the slot being evaluated (model.ResolveSlot); T = 0 when none is
	fed               int                // slots pushed so far, or the position Seek set
	le                *layerEvaluator    // reads cur
	gamma             float64
	prevGrid, curGrid *grid.Grid
	curCounts         []int // the counts curGrid was built for
}

// init builds the front end in place for a valid fleet template
// (model.ValidateFleet), so that its layer evaluator can read cur. The
// counts of cur and curCounts take the 2·len(types) ints of counts,
// which the caller carves from its own scratch.
func (f *slotFront) init(types []model.ServerType, opts Options, counts []int) {
	d := len(types)
	f.fleet = append([]model.ServerType(nil), types...)
	f.cur.Counts, f.curCounts = counts[:0:d], counts[d:d:2*d]
	f.le = newLayerEvaluator(f.fleet, &f.cur, opts)
	f.gamma = opts.Gamma
}

// push checks one slot (model.CheckSlot) and makes it the one evaluated,
// resolved at its absolute index, moving the lattice pair onto its
// counts. On error nothing changes.
func (f *slotFront) push(in model.SlotInput) error {
	t := f.fed + 1
	if err := model.CheckSlot(f.fleet, t, in); err != nil {
		return err
	}
	model.ResolveSlot(f.fleet, t, in, &f.cur)
	f.fed = t
	if counts := f.cur.Counts; f.curGrid == nil || !numeric.EqualInts(counts, f.curCounts) {
		f.prevGrid, f.curGrid = f.curGrid, f.lattice(counts)
		f.curCounts = append(f.curCounts[:0], counts...)
	} else {
		f.prevGrid = f.curGrid
	}
	return nil
}

// Slot returns the slot pushed last, resolved at its absolute index: one
// cost function and one count per type. It is read-only and valid until
// the next Push; its T is 0 before the first Push and after a Seek.
func (f *slotFront) Slot() model.SlotInput { return f.cur }

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
	if err := model.ValidateFleet(types); err != nil {
		return nil, err
	}
	l := &Layer{}
	l.init(types, Options{}, make([]int, 2*len(types)))
	return l, nil
}

// Push checks one slot (model.CheckSlot) and returns its g-layer with its
// lattice: cell i holds g_t at lattice index i, +Inf where the capacity
// falls short of the demand. The layer is read-only — it may be a memo
// entry other callers share — and both are valid until the next Push. On
// error the Layer is unchanged.
func (l *Layer) Push(in model.SlotInput) ([]float64, *grid.Grid, error) {
	if err := l.push(in); err != nil {
		return nil, nil, err
	}
	g := l.curGrid
	return l.le.begin(g.Size(), g, true), g, nil
}
