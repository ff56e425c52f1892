package baseline

import (
	"fmt"
	"math"

	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
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
// The window DP is the naive O(w·|M|²·d) transition; the wrapper runs on
// small lattices, and keeping it independent of the solver package's fast
// sweep gives the tests another differential oracle.
type Lookahead struct {
	fleet []model.ServerType
	w     int
	eval  *model.Evaluator
	buf   []model.SlotInput // ingested, undecided slots (deep copies)
	x     model.Config      // configuration committed for the newest decided slot
	out   model.Config      // scratch returned by Step
}

// NewLookahead builds the wrapper with lookahead window w >= 1 (w = 1 sees
// only the current slot: greedy with switching awareness, and decisions
// never lag).
func NewLookahead(types []model.ServerType, w int) (*Lookahead, error) {
	if err := model.ValidateFleet(types); err != nil {
		return nil, err
	}
	if w < 1 {
		return nil, fmt.Errorf("baseline: lookahead window must be >= 1, got %d", w)
	}
	return &Lookahead{
		fleet: append([]model.ServerType(nil), types...),
		w:     w,
		eval:  model.NewEvaluator(&model.Instance{Types: types}),
		x:     make(model.Config, len(types)),
		out:   make(model.Config, len(types)),
	}, nil
}

// Name implements core.Online. The display name keeps the policy's
// literature name (the Lookahead type is the streaming wrapper around it).
func (l *Lookahead) Name() string { return fmt.Sprintf("RecedingHorizon(w=%d)", l.w) }

// Step implements core.Online: it buffers the slot and, once the window
// holds w slots, decides and returns the oldest undecided slot's
// configuration. While the window fills it returns nil.
func (l *Lookahead) Step(in model.SlotInput) model.Config {
	d := len(l.fleet)
	costs := make([]costfn.Func, d)
	counts := make([]int, d)
	l.buf = append(l.buf, resolveInto(in, l.fleet, costs, counts))
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

// decideOne solves the buffered window [t, t+len(buf)-1] by backward DP
// and commits the first decision: V_k[x] = g_k(x) + min_{x'} (sw(x→x') +
// V_{k+1}[x']). The first-slot argmin including the switch from the
// current configuration is the committed decision.
func (l *Lookahead) decideOne() model.Config {
	d := len(l.fleet)
	cfg := make(model.Config, d)
	next := make(model.Config, d)

	var value []float64 // V_{k+1}
	var vGrid *grid.Grid
	for k := len(l.buf) - 1; k >= 0; k-- {
		in := l.buf[k]
		g := grid.NewFull(in.Counts)
		cur := make([]float64, g.Size())
		l.eval.Prepare(in)
		for idx := range cur {
			g.Decode(idx, cfg)
			op := l.eval.GPrepared(cfg)
			if math.IsInf(op, 1) {
				cur[idx] = op
				continue
			}
			future := 0.0
			if value != nil {
				best := math.Inf(1)
				for nIdx := range value {
					vGrid.Decode(nIdx, next)
					c := value[nIdx] + model.SwitchCostOf(l.fleet, cfg, next)
					if c < best {
						best = c
					}
				}
				future = best
			}
			cur[idx] = op + future
		}
		value, vGrid = cur, g
	}

	bestIdx, bestVal := -1, math.Inf(1)
	for idx := range value {
		vGrid.Decode(idx, cfg)
		c := value[idx] + model.SwitchCostOf(l.fleet, l.x, cfg)
		if c < bestVal {
			bestVal, bestIdx = c, idx
		}
	}
	if bestIdx < 0 {
		panic(fmt.Sprintf("baseline: no feasible window plan at slot %d", l.buf[0].T))
	}
	vGrid.Decode(bestIdx, l.x)
	l.buf = l.buf[1:]
	copy(l.out, l.x)
	return l.out
}
