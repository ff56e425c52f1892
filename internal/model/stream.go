package model

import (
	"fmt"

	"repro/internal/costfn"
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

// slotProfile is the CostProfile of an Accumulator's types: the newest
// slot's function, whatever slot index is asked for.
type slotProfile struct {
	f costfn.Func
}

// At implements CostProfile.
func (p *slotProfile) At(int) costfn.Func { return p.f }

// Accumulator validates pushed SlotInputs against a fleet template and
// resolves them, keeping only the newest slot: the streaming counterpart
// of a struct-literal Instance for consumers that read nothing but the
// slot they are evaluating. Its Instance holds one slot — slot 1 is the
// slot of the most recent Push, overwritten in place by the next — and
// is safe to read through any component holding the same *Instance
// pointer (Evaluator, PrefixTracker). Cost functions are resolved at the
// slot's absolute index, so time-varying template profiles are followed
// exactly; only the evaluation index is 1.
type Accumulator struct {
	ins      Instance
	profiles []slotProfile
	template []ServerType
	t        int        // slots pushed so far
	lambda   [1]float64 // backing array of ins.Lambda
	counts   [1][]int   // backing array of ins.Counts
}

// NewAccumulator prepares an accumulator for the fleet template. The
// template's per-type Count, SwitchCost and MaxLoad must be valid; Cost
// profiles are optional fallbacks for pushes that omit Costs.
func NewAccumulator(types []ServerType) (*Accumulator, error) {
	if err := ValidateFleet(types); err != nil {
		return nil, err
	}
	d := len(types)
	fleets := make([]ServerType, 2*d) // the template, then its clone reading the profiles
	acc := &Accumulator{
		template: append(fleets[:0:d], types...),
		profiles: make([]slotProfile, d),
	}
	cloned := fleets[d:]
	for j, st := range types {
		cloned[j] = st
		cloned[j].Cost = &acc.profiles[j]
	}
	acc.counts[0] = make([]int, d)
	acc.ins = Instance{
		Types:  cloned,
		Lambda: acc.lambda[:0],
		Counts: acc.counts[:0],
	}
	return acc, nil
}

// Instance returns the live one-slot instance: empty before the first
// Push, then holding the newest slot as slot 1.
func (a *Accumulator) Instance() *Instance { return &a.ins }

// T returns the number of slots pushed so far.
func (a *Accumulator) T() int { return a.t }

// Seek positions the accumulator after slot t without any slot data,
// dropping the slot it held: the next Push is slot t+1, its costs
// resolved at that absolute index, and Instance stays empty until then.
// It lets a consumer resume from a saved state that covers the first t
// slots instead of pushing them again.
func (a *Accumulator) Seek(t int) {
	a.t = t
	a.ins.Lambda, a.ins.Counts = a.ins.Lambda[:0], a.ins.Counts[:0]
}

// Newest materialises the newest slot into in, reusing its buffers, with
// its absolute index T. Only valid after the first Push.
func (a *Accumulator) Newest(in *SlotInput) {
	a.ins.SlotInto(1, in)
	in.T = a.t
}

// Check reports the error Push would return for in, changing nothing:
// the protocol (consecutive 1-based slots) and the slot's feasibility —
// finite, non-negative demand covered by the slot's total capacity,
// counts within the template's, and a cost function for every type,
// either carried by the slot or defined by the template's profile there.
func (a *Accumulator) Check(in SlotInput) error {
	t := a.t + 1
	if in.T != 0 && in.T != t {
		return fmt.Errorf("model: pushed slot %d out of order, want %d", in.T, t)
	}
	if err := checkSlot(a.template, t, in.Lambda, in.Counts); err != nil {
		return err
	}
	if in.Costs != nil && len(in.Costs) != len(a.template) {
		return fmt.Errorf("model: slot %d carries %d cost functions, want %d", t, len(in.Costs), len(a.template))
	}
	for j, st := range a.template {
		switch tpl := st.Cost; {
		case in.Costs != nil && in.Costs[j] != nil:
		case tpl == nil:
			return fmt.Errorf("model: slot %d has no cost function for type %d and the template has no profile", t, j)
		default:
			if b, ok := tpl.(bounded); ok && t > b.Horizon() {
				return fmt.Errorf("model: slot %d is past the %d slots type %d's cost profile defines", t, b.Horizon(), j)
			}
		}
	}
	return nil
}

// Push validates one slot (Check) and makes it the newest, resolving
// each type's cost function at the slot's absolute index. On error the
// accumulator is unchanged.
func (a *Accumulator) Push(in SlotInput) error {
	if err := a.Check(in); err != nil {
		return err
	}
	a.t++
	a.ins.Lambda = append(a.ins.Lambda[:0], in.Lambda)
	a.ins.Counts = a.ins.Counts[:1]
	for j, st := range a.template {
		a.ins.Counts[0][j] = in.Count(j, st.Count)
		if in.Costs != nil && in.Costs[j] != nil {
			a.profiles[j].f = in.Costs[j]
		} else {
			a.profiles[j].f = st.Cost.At(a.t)
		}
	}
	return nil
}
