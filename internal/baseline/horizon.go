package baseline

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/solver"
)

// Lookahead is receding-horizon control (model-predictive control) recast
// for the push-based streaming API: a wrapper that buffers w slots of
// input before committing each decision, making its semi-online nature
// explicit in the interface rather than by convention. The advisory for
// slot t is produced only once slots t..t+w-1 have been ingested (Step
// returns nil while the window fills) or the stream has been flushed; it
// solves the buffered window optimally starting from the current
// configuration, commits only the first decision, and rolls forward —
// exactly the classic receding-horizon policy, which assumed oracle access
// to the next w slots.
//
// solver.Window plans each window from the committed configuration:
// O(w·d·|M|) a decision plus dispatch solves the layer memo shares
// between the w windows a slot sits in. Decisions lag slots by w−1.
type Lookahead struct {
	fleet []model.ServerType
	w     int
	win   *solver.Window
	fed   int               // slots ingested
	buf   []model.SlotInput // ingested, undecided slots, resolved (deep copies)
	x     model.Config      // configuration committed for the newest decided slot
}

// NewLookahead builds the wrapper with lookahead window w >= 1 (w = 1 sees
// only the current slot: greedy with switching awareness, and decisions
// never lag).
func NewLookahead(types []model.ServerType, w int) (*Lookahead, error) {
	win, err := solver.NewWindow(types)
	if err != nil {
		return nil, err
	}
	if w < 1 {
		return nil, fmt.Errorf("baseline: lookahead window must be >= 1, got %d", w)
	}
	return &Lookahead{
		fleet: append([]model.ServerType(nil), types...),
		w:     w,
		win:   win,
		x:     make(model.Config, len(types)),
	}, nil
}

// Name implements core.Online. The display name keeps the policy's
// literature name (the Lookahead type is the streaming wrapper around it).
func (l *Lookahead) Name() string { return fmt.Sprintf("RecedingHorizon(w=%d)", l.w) }

// Step implements core.Online: it buffers the slot and, once the window
// holds w slots, decides and returns the oldest undecided slot's
// configuration. While the window fills it returns nil.
func (l *Lookahead) Step(in model.SlotInput) model.Config {
	l.fed++
	var slot model.SlotInput
	model.ResolveSlot(l.fleet, l.fed, in, &slot)
	l.buf = append(l.buf, slot)
	if len(l.buf) < l.w {
		return nil
	}
	return l.decideOne()
}

// Pending implements core.Buffered.
func (l *Lookahead) Pending() int { return len(l.buf) }

// Flush implements core.Buffered: the stream has ended, so the remaining
// windows shrink toward the horizon exactly as the batch policy's do.
func (l *Lookahead) Flush() []model.Config {
	out := make([]model.Config, 0, len(l.buf))
	for len(l.buf) > 0 {
		out = append(out, l.decideOne().Clone())
	}
	return out
}

// decideOne plans the buffered window [t, t+len(buf)-1] from the
// committed configuration and commits the plan's first decision, which
// it returns as the window's scratch.
func (l *Lookahead) decideOne() model.Config {
	first, _, err := l.win.Plan(l.x, l.buf)
	if err != nil {
		panic(fmt.Sprintf("baseline: no feasible window plan at slot %d: %v", l.buf[0].T, err))
	}
	copy(l.x, first)
	l.buf = l.buf[1:]
	return first
}
