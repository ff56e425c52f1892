package solver

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/statebuf"
)

// PrefixTracker incrementally maintains the optimal-cost DP layer for the
// growing prefix instances I_1, I_2, …. The online algorithms of
// Sections 2 and 3 need, at every slot t, the last configuration x̂^t_t of
// an optimal schedule for I_t; because power-downs are free, that is the
// argmin of the forward DP layer — so the whole online run costs no more
// than a single offline DP sweep: O(T·|M|·d) for the relax sweeps, plus
// at most T·|M| operating-cost evaluations. Dominance pruning (prune.go)
// evaluates only the cells a lower bound cannot prove dominated, under a
// fifth of them on the heterogeneous fleet under fresh demand, and sets
// the rest to +Inf; no decision, optimum or surviving cell changes. A
// step whose g-layer is whole anyway (a memo hit, or a layer the memo
// admits) adds it to every cell and defers the rule to AppendState, the
// one reader that sees +Inf cells. Its step is the package's only forward DP step: Solve,
// OptimalCost and Window sweep their slots through a tracker too.
//
// Slot data arrives push-style via Push(SlotInput), so the online
// information model holds by construction. The tracker reads each slot
// through the same front end as Layer (slotFront, layer.go): the one
// slot it is evaluating, resolved, the slot's lattice pair and the layer
// evaluator. A tracker built by NewPrefixTracker also binds an instance,
// and Advance pushes that instance's next slot.
//
// Ties in the argmin are broken towards the lowest lattice index, i.e. the
// lexicographically smallest configuration; any deterministic rule
// satisfies the paper's requirements.
type PrefixTracker struct {
	slotFront
	src   *model.Instance // the instance Advance reads; nil unless bound
	rx    *relaxer
	betas []float64
	prune bool         // prune dominated cells (prune.go)
	f0    []float64    // the slot's f_{t,j}(0), for pruning's lower bound
	zmax  []float64    // the fleet's capacities, likewise
	rate  []float64    // the slot's dualShape per type, for the dual bounds
	quad  []float64    // likewise
	coef  []float64    // c_j(ν*) per candidate, pruneCands × d
	cand  model.Config // pruning's candidate cells, pruneCands × d
	start model.Config // x_0, which slot 1 relaxes from: all-off but in a Window

	t     int       // slots processed so far
	opt   float64   // min D_t: the prefix optimum's cost, 0 before slot 1
	layer []float64 // D_t over the slot-t lattice
	spare []float64 // ping-pong buffer for the next layer; D_{t−1} between steps
	cfg   model.Config

	deferred bool // layer is D_t with its dominated cells still finite (settle)
	prunes   int  // prune passes run, over the tracker's life
}

// NewPrefixTracker prepares a tracker bound to an instance, consumed slot
// by slot via Advance. Only slot t's job volume and cost functions are
// read during the t-th Advance call, so the online information model is
// respected even though the Instance value is materialised up front.
// Options follow Solve: Gamma > 1 tracks prefix optima over the reduced
// lattice (used by the scalable variants of the online algorithms; the
// competitive proofs assume the exact lattice).
func NewPrefixTracker(ins *model.Instance, opts Options) (*PrefixTracker, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return bind(ins, opts)
}

// bind is NewPrefixTracker for an instance already validated.
func bind(ins *model.Instance, opts Options) (*PrefixTracker, error) {
	p, err := NewStreamTracker(ins.Types, opts)
	if err != nil {
		return nil, err
	}
	p.src, p.le.admit = ins, true
	return p, nil
}

// NewStreamTracker prepares a tracker for the fleet template: slot data
// arrives through Push, and its memory does not grow with the stream.
func NewStreamTracker(types []model.ServerType, opts Options) (*PrefixTracker, error) {
	if err := model.ValidateFleet(types); err != nil {
		return nil, err
	}
	d := len(types)
	ints := make([]int, (4+pruneCands)*d)       // cfg, start, the front's two counts and cand
	floats := make([]float64, (5+pruneCands)*d) // betas, f0, zmax, rate, quad and coef
	betas := floats[:d:d]
	for j, st := range types {
		betas[j] = st.SwitchCost
	}
	p := &PrefixTracker{
		rx:    newRelaxer(betas),
		betas: betas,
		prune: !pruneOff,
		f0:    floats[d : 2*d : 2*d],
		zmax:  floats[2*d : 3*d : 3*d],
		rate:  floats[3*d : 4*d : 4*d],
		quad:  floats[4*d : 5*d : 5*d],
		coef:  floats[5*d:],
		cfg:   ints[:d:d],
		start: ints[d : 2*d : 2*d],
		cand:  ints[4*d:],
	}
	p.init(types, opts, ints[2*d:4*d])
	return p, nil
}

// T returns the number of slots processed so far.
func (p *PrefixTracker) T() int { return p.t }

// Opt returns C(X̂^t), the optimal cost of the prefix consumed so far:
// 0 before the first slot, and after RestoreState the minimum of the
// restored layer, which is what the step that built it returned.
func (p *PrefixTracker) Opt() float64 { return p.opt }

// Exact reports whether the tracker follows the full configuration
// lattice (Gamma <= 1), i.e. its prefix optima are exact rather than
// (2γ−1)-approximate. Telemetry consumers (stream.Session) only reuse
// exact trackers.
func (p *PrefixTracker) Exact() bool { return p.gamma <= 1 }

// Done reports whether every slot of the bound instance has been
// consumed. A tracker built by NewStreamTracker has no horizon and is
// never done.
func (p *PrefixTracker) Done() bool { return p.src != nil && p.t >= p.src.T() }

// Advance consumes the next time slot of the bound instance and returns
// x̂^t_t — the final configuration of an optimal schedule for the prefix
// instance I_t — along with C(X̂^t), the optimal prefix cost. The
// returned configuration is a fresh copy. Advance panics when all slots
// are consumed or when no instance is bound.
func (p *PrefixTracker) Advance() (model.Config, float64) {
	cfg, val := p.next()
	return cfg.Clone(), val
}

// next is Advance returning tracker-owned scratch, valid until the next
// step. The slot's costs are left to the front end, which resolves the
// bound instance's profiles at the slot's absolute index.
func (p *PrefixTracker) next() (model.Config, float64) {
	if p.src == nil || p.Done() {
		panic("solver: PrefixTracker advanced past the last slot of its instance")
	}
	in := model.SlotInput{T: p.t + 1, Lambda: p.src.Lambda[p.t]}
	if p.src.Counts != nil {
		in.Counts = p.src.Counts[p.t]
	}
	cfg, val, err := p.Push(in)
	if err != nil {
		panic(err) // the bound instance was validated
	}
	return cfg, val
}

// Push appends one slot of data and returns x̂^t_t and the optimal prefix
// cost. The returned configuration is tracker-owned scratch, valid until
// the next Push; clone it to retain. Push reports an error for infeasible
// or out-of-order slots (the layer is unchanged in that case).
func (p *PrefixTracker) Push(in model.SlotInput) (model.Config, float64, error) {
	if err := p.push(in); err != nil {
		return nil, 0, err
	}
	cfg, val := p.step()
	return cfg, val, nil
}

// The tracker's state codec (see AppendState).
const (
	trackerStateKind    = 'T'
	trackerStateVersion = 1
)

// Seek positions a fresh tracker after slot t without its input, dropping
// the slot it held: the next Push is slot t+1, its costs resolved at that
// absolute index. It serves a caller that restores a state covering
// exactly t slots next (RestoreState).
func (p *PrefixTracker) Seek(t int) { p.fed, p.cur.T = t, 0 }

// AppendState appends the tracker's DP state to dst: the number of
// slots processed, the counts the current lattice was built for and the
// current layer D_t (whose +Inf cells survive, floats being stored as
// bits). The instance is not part of the state — a restore Seeks past
// it — and neither is the previous lattice, which the next Push
// replaces before reading.
//
// A layer whose prune pass its step deferred is pruned first (settle),
// so the bytes are those a memo miss would have left, whatever the memo
// held. AppendState therefore writes the tracker: like Push, it must
// not run concurrently with any other method.
func (p *PrefixTracker) AppendState(dst []byte) []byte {
	p.settle()
	dst = statebuf.AppendHeader(dst, trackerStateKind, trackerStateVersion)
	dst = statebuf.AppendInt(dst, p.t)
	dst = statebuf.AppendInts(dst, p.curCounts)
	return statebuf.AppendFloats(dst, p.layer)
}

// RestoreState loads an AppendState encoding into a fresh (never
// pushed) tracker that Seek positioned past exactly the slots the
// state covers, and builds the current lattice for the saved counts.
// Later Pushes then continue bit-identically to the tracker that wrote
// the state. The state is outside input: counts that cannot describe
// the saved layer on this fleet are refused before any lattice is
// built. On error the tracker is unchanged.
func (p *PrefixTracker) RestoreState(state []byte) error {
	if p.t != 0 {
		return fmt.Errorf("solver: RestoreState on a tracker that already advanced")
	}
	r := statebuf.NewReader(state)
	r.Header(trackerStateKind, trackerStateVersion)
	t := r.Int()
	counts := r.IntsInto(p.curCounts[:0]) // empty until a restore succeeds
	layer := r.Floats()
	if err := r.Done(); err != nil {
		return fmt.Errorf("solver: tracker state: %w", err)
	}
	if t != p.fed {
		return fmt.Errorf("solver: tracker state covers %d slots, the tracker was positioned after %d: %w", t, p.fed, statebuf.ErrMalformed)
	}
	if t == 0 {
		if len(counts) != 0 || len(layer) != 0 {
			return fmt.Errorf("solver: tracker state has a layer before the first slot: %w", statebuf.ErrMalformed)
		}
		return nil
	}
	if cells, ok := latticeCells(counts, p.gamma, len(layer)); !ok || len(counts) != len(p.fleet) || cells != len(layer) {
		return fmt.Errorf("solver: tracker state counts %v do not fit a %d-type fleet with a %d-cell layer: %w", counts, len(p.fleet), len(layer), statebuf.ErrMalformed)
	}
	p.t, p.layer, p.curCounts = t, layer, counts
	_, p.opt = argmin(layer)
	p.curGrid = p.lattice(counts)
	return nil
}

// maxRestoredCount bounds a lattice count: every count up to it
// converts to and from float64 exactly, so a reduced axis's powers of γ
// never leave int's range.
const maxRestoredCount = 1 << 52

// latticeCells returns the number of cells of the lattice of counts —
// Π_j (m_j + 1) for γ <= 1, the product of the reduced axes' lengths
// otherwise — when it is at most limit; ok is false otherwise, or for a
// count outside [0, maxRestoredCount]. It multiplies without overflow
// and builds a reduced axis only once its cheap lower bound fits, so
// hostile counts cost no memory.
func latticeCells(counts []int, gamma float64, limit int) (cells int, ok bool) {
	cells = 1
	for _, m := range counts {
		if m < 0 || m > maxRestoredCount {
			return 0, false
		}
		k := m + 1
		if gamma > 1 {
			if reducedLevels(m, gamma, limit/cells) > limit/cells {
				return 0, false
			}
			k = len(grid.ReducedAxis(m, gamma))
		}
		if k > limit/cells {
			return 0, false
		}
		cells *= k
	}
	return cells, true
}

// MaxLatticeCells is the largest exact lattice, Π_j (m_j + 1) cells, a
// serving tier accepts for a fleet. A stream tracker on the pruned path
// costs 55–100 ns of thread CPU per cell on a memo-miss push (the most
// on the smallest lattice) and holds ≈ 70 B per cell (layer buffers,
// g-layer and relax scratch), measured on a 2-vCPU Xeon @ 2.1 GHz with
// the heterogeneous fleet's types at 1, 2, 4 and 6 times its counts,
// 308 to 42 883 cells, under fresh demand. So a session at the budget
// costs ≈ 15–26 ms a push and ≈ 18 MB resident. Every registered
// algorithm's push is linear in the lattice; the costliest, receding
// horizon (w = 3), took 27–29 ms a memo-miss push at 2^16 cells against
// alg-b's 7–9 ms when a prune pass bounded with LB alone, and holds
// w·|M| floats, 1.5 MiB, for its window. So one request can no longer
// take a daemon down.
const MaxLatticeCells = 1 << 18

// LatticeCells returns the number of cells of the fleet's exact lattice
// when it is at most limit; ok is false otherwise, or for a negative
// count. It multiplies without overflow, for any counts.
func LatticeCells(types []model.ServerType, limit int) (cells int, ok bool) {
	counts := make([]int, len(types))
	for j, st := range types {
		counts[j] = st.Count
	}
	return latticeCells(counts, 0, limit)
}

// reducedLevels returns a lower bound on the length of m's reduced axis
// (grid.ReducedAxis): zero plus the distinct values of ⌊γ^k⌋ ≤ m. It
// stops counting past limit, so its cost does not grow with m.
func reducedLevels(m int, gamma float64, limit int) int {
	n, last := 1, 0.0
	for pw := 1.0; pw <= float64(m) && n <= limit; pw *= gamma {
		if f := math.Floor(pw); f != last {
			n, last = n+1, f
		}
	}
	return n
}

// step advances the DP layer by one slot onto the current lattice,
// relaxing from the previous slot's layer (from x_0 = p.start at the
// first slot). It returns tracker-owned scratch.
func (p *PrefixTracker) step() (model.Config, float64) {
	p.t++
	g := p.curGrid
	var layer []float64
	if p.t == 1 {
		layer = p.grow(&p.spare, g.Size())
		for idx := range layer {
			g.Decode(idx, p.cfg)
			sw := 0.0
			for j, beta := range p.betas {
				if up := p.cfg[j] - p.start[j]; up > 0 {
					sw += beta * float64(up)
				}
			}
			layer[idx] = sw
		}
	} else {
		layer = p.rx.relax(p.layer, p.prevGrid, g, p.grow(&p.spare, g.Size()))
	}
	// A whole g-layer is added to every cell; its prune pass would solve
	// nothing, so it waits for AppendState (settle).
	prune := p.t > 1 && p.prevGrid == g && p.floors()
	full := p.le.begin(len(layer), g, !prune)
	if full == nil {
		p.prunedStep(layer, g, nil)
	} else {
		for i, v := range full {
			layer[i] += v
		}
	}
	p.deferred = prune && full != nil

	// Swap buffers: the old layer becomes next round's spare.
	p.layer, p.spare = layer, p.layer

	idx, val := argmin(layer)
	g.Decode(idx, p.cfg)
	p.opt = val
	return p.cfg, val
}

// OptRange returns the lexicographically smallest and largest
// configurations attaining the current prefix optimum (up to relative
// tolerance 1e-12). For homogeneous instances (d = 1) these are the lower
// and upper envelopes of optimal prefix end states used by lazy
// capacity provisioning. Only valid after the first Advance/Push.
func (p *PrefixTracker) OptRange() (lo, hi model.Config) {
	if p.t == 0 {
		panic("solver: OptRange before first slot")
	}
	g := p.Lattice()
	_, best := argmin(p.layer)
	tol := 1e-12 * (1 + best)
	loIdx, hiIdx := -1, -1
	for i, v := range p.layer {
		if v <= best+tol {
			if loIdx < 0 {
				loIdx = i
			}
			hiIdx = i
		}
	}
	lo = make(model.Config, len(p.fleet))
	hi = make(model.Config, len(p.fleet))
	g.Decode(loIdx, lo)
	g.Decode(hiIdx, hi)
	return lo, hi
}

// G returns the operating cost g_t(x) of the most recently processed
// slot when x lies on that slot's lattice: read from the layer
// evaluation its step already did, or, for a cell the step pruned,
// solved on demand with the evaluator prepared for the slot. ok is false
// otherwise (off-lattice x under a reduced lattice, before the first
// slot, or right after RestoreState). The value is bit-identical to
// solving x's dispatch program (model.Evaluator.G): g_t is pure and the
// dispatch dual canonical, the same guarantee the layer memo rests on.
func (p *PrefixTracker) G(x model.Config) (g float64, ok bool) {
	if p.le.last == nil {
		return 0, false
	}
	idx, ok := p.Lattice().Encode(x)
	if !ok {
		return 0, false
	}
	return p.le.cell(idx, x), true
}

// Held returns the number of slot inputs the tracker keeps resident: at
// most one, the slot it evaluated last. A bound instance is read in
// place, not held.
func (p *PrefixTracker) Held() int {
	if p.cur.T == 0 {
		return 0
	}
	return 1
}

// Lattice returns the lattice used at the current slot; it is only valid
// after the first Advance/Push.
func (p *PrefixTracker) Lattice() *grid.Grid {
	if p.t == 0 {
		panic("solver: Lattice before first slot")
	}
	return p.curGrid
}

// grow resizes *buf to n elements, allocating if needed.
func (p *PrefixTracker) grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}
