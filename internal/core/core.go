// Package core implements the paper's primary contribution: the online
// algorithms for right-sizing heterogeneous data centers.
//
//   - Algorithm A (Section 2): time-independent operating costs,
//     (2d+1)-competitive; 2d when the costs are also load-independent
//     (Corollary 9).
//   - Algorithm B (Section 3.1): time-dependent operating costs,
//     (2d+1+c(I))-competitive with c(I) = Σ_j max_t f_{t,j}(0)/β_j.
//   - Algorithm C (Section 3.2): time-dependent operating costs,
//     (2d+1+ε)-competitive for any ε > 0 via sub-slot subdivision.
//
// All three share the same power-up rule — never run fewer servers of any
// type than the final configuration x̂^t_t of an optimal schedule for the
// prefix instance I_t — and differ in their power-down rule (a ski-rental
// style timeout measured in accumulated idle cost). Algorithms A and B
// share that rule's code too, and expose the prefix tracker behind it
// through Tracked, the one seam live drivers read telemetry from;
// Algorithm C reads its sub-slot costs from its inner B's tracker.
//
// The API is push-based: algorithms are constructed from the fleet
// template ([]model.ServerType) alone and receive each slot's demand, cost
// functions and fleet counts through Step as they arrive, so the online
// information model holds by construction. Batch replay over a recorded
// instance is a thin driver (Run) on top of the same streaming path.
package core

import (
	"repro/internal/model"
	"repro/internal/solver"
)

// Online is a deterministic push-based online right-sizing algorithm. A
// Step consumes exactly one time slot's observable data — the
// implementation never sees further into the future.
type Online interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Step consumes the next slot (slots arrive consecutively, starting
	// at 1; in.T is that index or 0) and returns the configuration the
	// algorithm keeps active during it. Costs the slot omits resolve
	// from the template's profiles at the algorithm's own slot index.
	// The returned slice is algorithm-owned scratch, valid only until
	// the next Step; clone it to retain. Step panics on infeasible or
	// out-of-order input — live drivers validate before stepping (see
	// internal/stream.Session).
	//
	// Semi-online algorithms (see Buffered) may return nil while their
	// lookahead window fills; the returned configuration is then always
	// for the oldest undecided slot, not necessarily for in.T.
	Step(in model.SlotInput) model.Config
}

// Tracked is the optional interface of online algorithms that run a
// streaming prefix-optimum tracker as part of their decision rule
// (Algorithms A and B, LCP). The tracker's last step is the DP layer of
// the slot the algorithm last stepped, so a live driver (stream.Session)
// reads its telemetry from it — the prefix optimum's cost (Opt) when the
// tracker is exact, and the decided configuration's operating cost (G) —
// instead of running a second tracker or solving the slot again.
type Tracked interface {
	Online
	// Tracker returns the algorithm's prefix tracker; callers only read
	// it.
	Tracker() *solver.PrefixTracker
}

// Buffered is the optional interface of semi-online algorithms whose
// decisions lag their inputs: a Lookahead(w) controller needs slots
// t..t+w-1 before it can commit slot t, so its Step returns nil for the
// first w-1 slots and drivers must Flush once the stream ends. Fully
// online algorithms never implement Buffered.
type Buffered interface {
	Online
	// Pending reports the number of ingested slots not yet decided.
	Pending() int
	// Flush decides every pending slot as if the stream had ended and
	// returns their configurations in slot order. The returned
	// configurations are fresh copies.
	Flush() []model.Config
}

// Snapshotter is the optional interface of online algorithms whose
// decision state has a compact binary encoding (Algorithms A and B), so
// a live driver can save it beside its replay log and later resume
// without stepping the algorithm through the whole log again
// (stream.RestoreFromState). Restoring takes two steps on a freshly
// constructed algorithm: Seek skips the slots the state covers, and
// RestoreState loads the state. The algorithm then continues
// bit-identically to the one that wrote the state, exactly as if it had
// replayed the log.
type Snapshotter interface {
	Online
	// Seek positions an algorithm that was never stepped after slot t
	// without its history; the next Step is slot t+1.
	Seek(t int)
	// AppendState appends the algorithm's state after its most recent
	// Step to dst. The encoding starts with a kind and version header
	// (internal/statebuf). It may write the algorithm (a prefix tracker
	// runs a deferred prune pass first), so, like Step, it must not run
	// concurrently with any other method.
	AppendState(dst []byte) []byte
	// RestoreState loads an AppendState encoding into an algorithm that
	// was never stepped and that Seek positioned after exactly the slots
	// the state covers. It rejects states of another kind or version,
	// and states that do not fit the fleet or the Seek.
	RestoreState(state []byte) error
}

// Run drives an online algorithm over a pre-recorded instance — the batch
// facade over the streaming API. The schedule is preallocated and each
// slot's scratch configuration is cloned exactly once into it.
func Run(a Online, ins *model.Instance) model.Schedule {
	T := ins.T()
	out := make(model.Schedule, 0, T)
	var in model.SlotInput
	for t := 1; t <= T; t++ {
		ins.SlotInto(t, &in)
		if x := a.Step(in); x != nil {
			out = append(out, x.Clone())
		}
	}
	if b, ok := a.(Buffered); ok {
		for _, x := range b.Flush() {
			out = append(out, x.Clone())
		}
	}
	return out
}
