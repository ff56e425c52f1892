package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/costfn"
	"repro/internal/dispatch"
	"repro/internal/numeric"
)

// SlotInput is everything an online algorithm may observe about one time
// slot as it arrives: the slot index, the job volume, the slot's operating
// cost functions and the available fleet sizes. It is the unit of the
// push-based streaming API — algorithms consume SlotInputs in order and
// never see further into the future, so the online information model holds
// by construction.
type SlotInput struct {
	// T is the 1-based slot index. Slots must be pushed consecutively,
	// starting at 1.
	T int
	// Lambda is the slot's job volume λ_t.
	Lambda float64
	// Costs holds f_{t,j} per server type. nil means "each type's template
	// profile applies" (consumers resolve Cost.At(T) themselves).
	Costs []costfn.Func
	// Counts holds m_{t,j} per server type. nil means the template counts
	// apply.
	Counts []int
}

// Cost returns f_{T,j}: the input's function when provided, else the
// template profile's At(T).
func (in SlotInput) Cost(j int, tpl CostProfile) costfn.Func {
	if in.Costs != nil && in.Costs[j] != nil {
		return in.Costs[j]
	}
	return tpl.At(in.T)
}

// Count returns m_{T,j}: the input's count when provided, else tpl.
func (in SlotInput) Count(j, tpl int) int {
	if in.Counts != nil {
		return in.Counts[j]
	}
	return tpl
}

// SlotInto materialises slot t's observable data into in, reusing its
// Costs/Counts buffers. It is the batch driver's per-slot bridge from a
// pre-recorded instance to the streaming API.
func (ins *Instance) SlotInto(t int, in *SlotInput) {
	d := ins.D()
	if cap(in.Costs) < d {
		in.Costs = make([]costfn.Func, d)
	}
	in.Costs = in.Costs[:d]
	if cap(in.Counts) < d {
		in.Counts = make([]int, d)
	}
	in.Counts = in.Counts[:d]
	in.T = t
	in.Lambda = ins.Lambda[t-1]
	for j := range ins.Types {
		in.Costs[j] = ins.Types[j].Cost.At(t)
		in.Counts[j] = ins.CountAt(t, j)
	}
}

// Slot returns slot t's observable data as a fresh SlotInput.
func (ins *Instance) Slot(t int) SlotInput {
	var in SlotInput
	ins.SlotInto(t, &in)
	return in
}

// growingProfile is the CostProfile of an Accumulator's types: one function
// per pushed slot.
type growingProfile struct {
	fs []costfn.Func
}

// At implements CostProfile.
func (g *growingProfile) At(t int) costfn.Func { return g.fs[t-1] }

// Accumulator builds an Instance incrementally from pushed SlotInputs: the
// streaming counterpart of a struct-literal Instance. The instance it
// exposes grows by one slot per Push and is safe to read through any
// component holding the same *Instance pointer (Evaluator, PrefixTracker),
// because all per-slot data is append-only.
type Accumulator struct {
	ins      *Instance
	profiles []*growingProfile
	template []ServerType
	fnBuf    []costfn.Func // per-push resolution scratch
	cntBuf   []int         // per-push counts scratch
}

// NewAccumulator prepares an accumulator for the fleet template. The
// template's per-type Count, SwitchCost and MaxLoad must be valid; Cost
// profiles are optional fallbacks for pushes that omit Costs.
func NewAccumulator(types []ServerType) (*Accumulator, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("model: accumulator needs at least one server type")
	}
	acc := &Accumulator{
		template: append([]ServerType(nil), types...),
		profiles: make([]*growingProfile, len(types)),
	}
	cloned := make([]ServerType, len(types))
	for j, st := range types {
		if st.Count < 0 {
			return nil, fmt.Errorf("model: type %d has negative count %d", j, st.Count)
		}
		if st.SwitchCost < 0 {
			return nil, fmt.Errorf("model: type %d has negative switching cost %g", j, st.SwitchCost)
		}
		if st.MaxLoad <= 0 {
			return nil, fmt.Errorf("model: type %d has non-positive capacity %g", j, st.MaxLoad)
		}
		acc.profiles[j] = &growingProfile{}
		cloned[j] = st
		cloned[j].Cost = acc.profiles[j]
	}
	acc.ins = &Instance{Types: cloned, Counts: [][]int{}}
	return acc, nil
}

// Instance returns the live growing instance. Its T() equals the number of
// slots pushed so far.
func (a *Accumulator) Instance() *Instance { return a.ins }

// T returns the number of slots pushed so far.
func (a *Accumulator) T() int { return a.ins.T() }

// resolve returns slot input's cost function for type j, falling back to
// the template profile.
func (a *Accumulator) resolve(in SlotInput, j int) (costfn.Func, error) {
	if in.Costs != nil {
		if len(in.Costs) != len(a.template) {
			return nil, fmt.Errorf("model: slot %d carries %d cost functions, want %d", in.T, len(in.Costs), len(a.template))
		}
		if f := in.Costs[j]; f != nil {
			return f, nil
		}
	}
	if tpl := a.template[j].Cost; tpl != nil {
		return tpl.At(in.T), nil
	}
	return nil, fmt.Errorf("model: slot %d has no cost function for type %d and the template has no profile", in.T, j)
}

// Push appends one slot. It validates the protocol (consecutive 1-based
// slots) and the slot's feasibility: finite, non-negative demand covered
// by the slot's total capacity.
func (a *Accumulator) Push(in SlotInput) error {
	t := a.T() + 1
	if in.T != 0 && in.T != t {
		return fmt.Errorf("model: pushed slot %d out of order, want %d", in.T, t)
	}
	in.T = t
	if in.Lambda < 0 {
		return fmt.Errorf("model: negative job volume %g at slot %d", in.Lambda, t)
	}
	if math.IsNaN(in.Lambda) || math.IsInf(in.Lambda, 1) {
		return fmt.Errorf("model: non-finite job volume %g at slot %d", in.Lambda, t)
	}
	if in.Counts != nil && len(in.Counts) != len(a.template) {
		return fmt.Errorf("model: slot %d carries %d counts, want %d", t, len(in.Counts), len(a.template))
	}
	if cap(a.cntBuf) < len(a.template) {
		a.cntBuf = make([]int, len(a.template))
		a.fnBuf = make([]costfn.Func, len(a.template))
	}
	counts, fs := a.cntBuf[:len(a.template)], a.fnBuf[:len(a.template)]
	capacity := 0.0
	for j := range a.template {
		c := a.template[j].Count
		if in.Counts != nil {
			c = in.Counts[j]
		}
		if c < 0 {
			return fmt.Errorf("model: negative count at slot %d type %d", t, j)
		}
		counts[j] = c
		capacity += float64(c) * a.template[j].MaxLoad
	}
	if capacity < in.Lambda*(1-1e-12) {
		return fmt.Errorf("model: slot %d demand %g exceeds total capacity %g", t, in.Lambda, capacity)
	}
	for j := range a.template {
		f, err := a.resolve(in, j)
		if err != nil {
			return err
		}
		fs[j] = f
	}
	// All checks passed; commit append-only. Rows never mutate after the
	// append, so a slot whose counts repeat the previous slot's aliases
	// the same backing row — steady-state pushes on a static fleet stay
	// allocation-free.
	row := a.cntBuf[:len(a.template)]
	if last := len(a.ins.Counts) - 1; last >= 0 && numeric.EqualInts(a.ins.Counts[last], row) {
		row = a.ins.Counts[last]
	} else {
		row = append([]int(nil), row...)
	}
	for j, f := range fs {
		a.profiles[j].fs = append(a.profiles[j].fs, f)
	}
	a.ins.Counts = append(a.ins.Counts, row)
	a.ins.Lambda = append(a.ins.Lambda, in.Lambda)
	return nil
}

// GrowHeadroom is the number of slots Grow reserves beyond those asked
// for: room for the pushes that follow a refill, so the first of them
// does not re-double the arrays the refill just filled.
const GrowHeadroom = 64

// Grow reserves room for n more slots plus GrowHeadroom, so a driver
// that knows how many slots it is about to push (a refill from a
// replay log) grows the instance's arrays once instead of by doubling.
func (a *Accumulator) Grow(n int) {
	n += GrowHeadroom
	a.ins.Lambda = slices.Grow(a.ins.Lambda, n)
	a.ins.Counts = slices.Grow(a.ins.Counts, n)
	for _, p := range a.profiles {
		p.fs = slices.Grow(p.fs, n)
	}
}

// SlotEval computes the operating cost g(x) of a configuration against one
// SlotInput, without materialising an Instance. It reuses scratch buffers
// and is not safe for concurrent use. Costs must be resolved (non-nil) in
// the inputs it evaluates.
type SlotEval struct {
	caps    []float64
	servers []dispatch.Server
	solver  dispatch.Solver
}

// NewSlotEval builds an evaluator for the fleet template (only the
// per-type MaxLoad capacities are read).
func NewSlotEval(types []ServerType) *SlotEval {
	caps := make([]float64, len(types))
	for j, st := range types {
		caps[j] = st.MaxLoad
	}
	return &SlotEval{caps: caps, servers: make([]dispatch.Server, len(types))}
}

// G returns g(x) for the slot: +Inf when x exceeds the slot's counts (or
// is negative), else the optimal dispatch cost. It mirrors Evaluator.G
// bit-for-bit for equal inputs.
func (e *SlotEval) G(in SlotInput, x Config) float64 {
	if len(x) != len(e.caps) {
		panic("model: configuration dimension mismatch")
	}
	for j := range e.servers {
		if x[j] < 0 || x[j] > in.Counts[j] {
			return math.Inf(1)
		}
		e.servers[j] = dispatch.Server{
			Active: x[j],
			Cap:    e.caps[j],
			F:      in.Costs[j],
		}
	}
	return e.solver.Cost(e.servers, in.Lambda)
}
