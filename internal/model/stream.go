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
	// starting at 1; T = 0 means "the next slot" to every consumer, which
	// then resolves the slot at its own count of slots taken.
	T int
	// Lambda is the slot's job volume λ_t.
	Lambda float64
	// Costs holds f_{t,j} per server type. nil, or a nil entry, means the
	// type's template profile applies at the slot's index (ResolveSlot).
	Costs []costfn.Func
	// Counts holds m_{t,j} per server type. nil means the template counts
	// apply.
	Counts []int
}

// Count returns m_{T,j}: the input's count when provided, else tpl.
func (in SlotInput) Count(j, tpl int) int {
	if in.Counts != nil {
		return in.Counts[j]
	}
	return tpl
}

// slotCost returns f_{t,j}: the input's function when provided, else the
// template profile's at slot t.
func slotCost(in SlotInput, j int, tpl CostProfile, t int) costfn.Func {
	if in.Costs != nil && in.Costs[j] != nil {
		return in.Costs[j]
	}
	return tpl.At(t)
}

// CheckSlot reports whether in may be slot t of a stream over the fleet
// template types, changing nothing: the protocol (in.T is 0 or t) and
// the slot's feasibility — finite, non-negative demand covered by the
// slot's total capacity, counts within the template's, and a cost
// function for every type, either carried by the slot or defined by the
// template's profile at t.
func CheckSlot(types []ServerType, t int, in SlotInput) error {
	if in.T != 0 && in.T != t {
		return fmt.Errorf("model: pushed slot %d out of order, want %d", in.T, t)
	}
	if err := checkSlot(types, t, in.Lambda, in.Counts); err != nil {
		return err
	}
	if in.Costs != nil && len(in.Costs) != len(types) {
		return fmt.Errorf("model: slot %d carries %d cost functions, want %d", t, len(in.Costs), len(types))
	}
	for j, st := range types {
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

// ResolveSlot writes in as slot t of a stream over the fleet template
// types into dst, reusing dst's Costs and Counts buffers: index t, the
// demand, and one cost function and one count per type, each type's
// template profile resolved at t where in omits its function. in must
// pass CheckSlot; a slot already resolved is copied without resolving
// anything again.
func ResolveSlot(types []ServerType, t int, in SlotInput, dst *SlotInput) {
	d := len(types)
	if cap(dst.Costs) < d {
		dst.Costs = make([]costfn.Func, d)
	}
	if cap(dst.Counts) < d {
		dst.Counts = make([]int, d)
	}
	dst.Costs, dst.Counts = dst.Costs[:d], dst.Counts[:d]
	dst.T, dst.Lambda = t, in.Lambda
	for j, st := range types {
		dst.Costs[j] = slotCost(in, j, st.Cost, t)
		dst.Counts[j] = in.Count(j, st.Count)
	}
}

// SlotInto materialises slot t's observable data into in, reusing its
// Costs/Counts buffers. It is the batch driver's per-slot bridge from a
// pre-recorded instance to the streaming API.
func (ins *Instance) SlotInto(t int, in *SlotInput) {
	src := SlotInput{Lambda: ins.Lambda[t-1]}
	if ins.Counts != nil {
		src.Counts = ins.Counts[t-1]
	}
	ResolveSlot(ins.Types, t, src, in)
}

// Slot returns slot t's observable data as a fresh SlotInput.
func (ins *Instance) Slot(t int) SlotInput {
	var in SlotInput
	ins.SlotInto(t, &in)
	return in
}
