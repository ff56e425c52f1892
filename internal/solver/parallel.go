package solver

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
)

// layerEvaluator evaluates the operating costs g_t(x) of a whole DP
// layer. It owns the two fast paths of the solver's dominant kernel:
//
//   - A slot-keyed layer memo: slots with identical content (λ, counts,
//     capacities, cost functions, γ) share one evaluation process-wide
//     (see gcache.go) — periodic traces, Algorithm C's sub-slots and the
//     suite's OPT-plus-trackers pile-up all collapse to single sweeps.
//   - A fan-out per layer: with Workers > 1 the lattice lines of a layer
//     are statically partitioned over goroutines started for that layer
//     and joined before it returns, so none outlives the layer. Each
//     share owns its model.Evaluator (scratch buffers and the dispatch
//     warm-start state are not safe for concurrent use) and walks its
//     lines in grid order, so the dispatch dual moves monotonically along
//     each line and successive solves warm-start each other. Results are
//     bit-identical for any worker count: g_t is a pure function and the
//     warm-started dual is canonical (hint-independent).
type layerEvaluator struct {
	in      *model.SlotInput // the slot being evaluated, resolved (slotFront.cur)
	tpl     model.Instance   // the bare fleet template the evaluators read
	noMemo  bool
	stripe  uint32 // the memo stat stripe this evaluator counts on
	workers int

	eval *model.Evaluator // serial path
	cfg  model.Config
	gbuf []float64 // pure g-layer scratch for slots the memo misses
	last []float64 // pure g-layer of the last slot begun: gbuf or a read-only memo entry
	sig  gcacheSig // reusable signature buffers

	ready  bool // eval is prepared for the slot of the last layer
	solved int  // dispatch programs solved for layers, over the evaluator's life

	// The fan-out (workers > 1): one share per worker, the walk they
	// share and the group joining them.
	shares []lineShare
	job    lineJob
	wg     sync.WaitGroup

	// partial reports that gbuf holds a partial g-layer (begin returned
	// nil) of the slot keyed prev. A memo-admitted evaluation of the same
	// key right after it, as Algorithm C's sub-slots make, keeps its
	// solved cells. held reports that gbuf holds the whole g-layer of the
	// slot keyed prev, which the memo did not admit: the same key right
	// after it takes the layer as it is. Memo hits in between do not
	// count: a receding-horizon window's second sighting of a slot
	// follows a hit on the window's first slot.
	partial bool
	held    bool
	prev    gcacheSig

	// admit makes begin insert every layer it misses at first sight,
	// bypassing the doorkeeper. Trackers bound to an instance set it:
	// an offline sweep's layers are typically swept again (the suite's
	// online algorithms over the instance its optimum was solved on).
	admit bool
}

// newLayerEvaluator builds an evaluator of the slot in over the fleet
// template types; opts.Workers <= 1 evaluates serially, Workers ==
// AutoWorkers uses one worker per available CPU.
func newLayerEvaluator(types []model.ServerType, in *model.SlotInput, opts Options) *layerEvaluator {
	workers := opts.Workers
	if workers == AutoWorkers {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	d := len(types)
	le := &layerEvaluator{
		in:      in,
		tpl:     model.Instance{Types: types},
		noMemo:  memoOff,
		stripe:  newMemoStripe(),
		workers: workers,
		cfg:     make(model.Config, d),
	}
	le.eval = model.NewEvaluator(&le.tpl)
	le.sig.gamma = opts.Gamma
	le.sig.caps = make([]float64, d)
	for j, st := range types {
		le.sig.caps[j] = st.MaxLoad
	}
	// The remembered key shares the signature's allocations; the
	// capacities are the evaluator's own, so both read one array.
	counts, fns := make([]int, 2*d), make([]costfn.Func, 2*d)
	le.sig.counts, le.prev.counts = counts[:0:d], counts[d:d]
	le.sig.fns, le.prev.fns = fns[:0:d], fns[d:d]
	le.prev.caps = le.sig.caps
	if workers > 1 {
		le.shares = make([]lineShare, workers)
		for w := range le.shares {
			s := &le.shares[w]
			s.le, s.eval, s.cfg = le, model.NewEvaluator(&le.tpl), make(model.Config, d)
			s.run = s.walk
		}
	}
	return le
}

// AutoWorkers selects one DP worker per available CPU.
const AutoWorkers = -1

// signature keys the slot's layer content for the memo, reusing the
// evaluator's buffers. ok is false when the slot is not memoisable (a
// cost-function family the fingerprint does not know).
func (le *layerEvaluator) signature() (*gcacheSig, bool) {
	if le.noMemo {
		return nil, false
	}
	s, in := &le.sig, le.in
	s.lambda = in.Lambda
	s.counts = s.counts[:0]
	s.fns = s.fns[:0]
	h := newKeyHash()
	h.f64(s.lambda)
	h.f64(s.gamma)
	for j, f := range in.Costs {
		c := in.Counts[j]
		s.counts = append(s.counts, c)
		h.u64(uint64(c))
		h.f64(s.caps[j])
		if !fnFingerprint(&h, f) {
			return nil, false
		}
		s.fns = append(s.fns, f)
	}
	s.hash = uint64(h)
	return s, true
}

// full evaluates every cell of the slot's layer into gbuf and returns it.
func (le *layerEvaluator) full(n int, g *grid.Grid) []float64 {
	gb := le.buf(n)
	le.walk(gb, nil, false, g)
	le.solved += n
	return gb
}

// buf returns gbuf resized to n cells.
func (le *layerEvaluator) buf(n int) []float64 {
	if cap(le.gbuf) < n {
		le.gbuf = make([]float64, n)
	}
	return le.gbuf[:n]
}

// begin opens the slot's layer and returns its whole g-layer when it is
// at hand: a memo hit, or a layer evaluated in full — every layer when
// whole is set (a slot the caller does not prune), else one the memo
// admits. The memo admits a layer it can key under le.admit, else when
// it has seen the signature once before (the doorkeeper, see gcache.go),
// and an admitted layer enters it at once. A whole layer it does not
// admit stays in gbuf, and the same key right after it takes it from
// there. Otherwise begin returns nil and le.last is gbuf with every cell
// unsolved (NaN), for the caller to mark cells unsolvedMark and solve
// them with solveMarked; no layer of it enters the memo.
func (le *layerEvaluator) begin(n int, g *grid.Grid, whole bool) []float64 {
	le.ready = false
	partial, held := le.partial, le.held
	le.partial, le.held = false, false
	sig, memo := le.signature()
	if memo {
		if cached, hit := gcacheGet(sig, le.stripe); hit && len(cached) == n {
			// A hit touches neither gbuf nor prev: a partial or held
			// layer there still stands for the next key it matches, as
			// a receding-horizon window's next sighting of a slot is.
			le.last, le.partial, le.held = cached, partial, held
			return cached
		}
	}
	admitted := memo && (le.admit || gcacheSeen(sig))
	if whole || admitted {
		var gb []float64
		switch {
		case held && le.prev.equal(sig) && len(le.gbuf) >= n:
			gb = le.gbuf[:n]
		case partial && memo && le.prev.equal(sig) && len(le.gbuf) >= n:
			// g_t is pure: the partial layer's solved cells stand.
			gb = le.gbuf[:n]
			for i, v := range gb {
				if v != v {
					gb[i] = unsolvedMark
				}
			}
			le.walk(gb, nil, true, g)
		default:
			gb = le.full(n, g)
		}
		if admitted {
			gcachePut(sig, gb)
		} else if memo {
			le.prev.copyFrom(sig)
			le.held = true
		}
		le.last = gb
		return gb
	}
	if memo {
		le.prev.copyFrom(sig)
		le.partial = true
	}
	gb := le.buf(n)
	nan := math.NaN()
	for i := range gb {
		gb[i] = nan
	}
	le.last = gb
	return nil
}

// unsolvedMark marks a cell of a partial g-layer (begin returned nil)
// for solveMarked; an unmarked cell stays NaN, unsolved. No g of a
// family the tracker prunes can be −Inf: its lower bound is finite.
var unsolvedMark = math.Inf(-1)

// solveMarked solves every cell of the partial g-layer le.last that is
// marked unsolvedMark, in lattice order, and adds each g to the same
// cell of layer.
func (le *layerEvaluator) solveMarked(layer []float64, g *grid.Grid) {
	le.walk(le.last, layer, true, g)
}

// cell returns g_t(x) of the last slot's layer at index idx, solving it
// on demand when the layer left it unsolved.
func (le *layerEvaluator) cell(idx int, x model.Config) float64 {
	if v := le.last[idx]; v == v {
		return v
	}
	le.prepare()
	return le.eval.GPrepared(x)
}

// dual solves cell idx, configuration x, of the last slot's layer on the
// serial evaluator, records its g in the layer when the layer left it
// unsolved, and returns the canonical dual of its dispatch program
// (model.Evaluator.Dual).
func (le *layerEvaluator) dual(idx int, x model.Config) float64 {
	le.prepare()
	g := le.eval.GPrepared(x)
	le.solved++
	if v := le.last[idx]; v != v {
		le.last[idx] = g
	}
	return le.eval.Dual()
}

// prepare prepares the serial evaluator for the slot, once per layer.
func (le *layerEvaluator) prepare() {
	if !le.ready {
		le.eval.Prepare(*le.in)
		le.ready = true
	}
}

// walk computes g_t into dst as walkLines does, fanning lattice lines
// out over one goroutine per share when the evaluator has shares and
// the layer is large enough. Shares are static (share w always gets the
// same lines for the same layer shape) and each walks with its own
// evaluator, so the result does not depend on scheduling.
func (le *layerEvaluator) walk(dst, add []float64, marked bool, g *grid.Grid) {
	lines := len(dst) / len(g.Axis(g.D()-1))
	if le.shares == nil || lines < 2 || len(dst) < 2*le.workers {
		le.prepare()
		le.solved += walkLines(le.eval, le.cfg, dst, add, marked, g, 0, lines)
		return
	}
	le.job = lineJob{dst: dst, add: add, marked: marked, g: g}
	chunk := (lines + le.workers - 1) / le.workers
	shares := le.shares[:(lines+chunk-1)/chunk]
	le.wg.Add(len(shares))
	for w := range shares {
		s := &shares[w]
		s.lo, s.hi = w*chunk, min((w+1)*chunk, lines)
		go s.run()
	}
	le.wg.Wait()
	for w := range shares {
		le.solved += shares[w].solved
	}
}

// lineJob is the layer walk a fan-out's shares split between them.
type lineJob struct {
	dst, add []float64
	marked   bool
	g        *grid.Grid
}

// lineShare is one worker's part of a fan-out: lattice lines [lo, hi)
// of the evaluator's job, walked with the share's own evaluator.
type lineShare struct {
	le     *layerEvaluator
	eval   *model.Evaluator
	cfg    model.Config
	lo, hi int
	solved int    // cells the share's last marked walk solved
	run    func() // walk, bound once: starting it allocates nothing
}

// walk is the body of a share's goroutine.
func (s *lineShare) walk() {
	j := &s.le.job
	s.eval.Prepare(*s.le.in)
	s.solved = walkLines(s.eval, s.cfg, j.dst, j.add, j.marked, j.g, s.lo, s.hi)
	s.le.wg.Done()
}

// walkLines evaluates lattice lines [loLine, hiLine) of the slot eval is
// prepared for (counts, capacities, cost functions and the dispatch type
// table, resolved once): one Decode per line, then the contiguous
// last-dimension run with only the final coordinate changing — cheap
// decodes and monotone dual movement for the dispatch warm start. With
// marked set only the cells marked unsolvedMark are solved, still in
// lattice order, and their g is added to add too unless add is nil. It
// returns the number of cells a marked walk solved.
func walkLines(eval *model.Evaluator, cfg model.Config, dst, add []float64, marked bool, g *grid.Grid, loLine, hiLine int) int {
	d := g.D()
	last := g.Axis(d - 1)
	solved := 0
	for ln := loLine; ln < hiLine; ln++ {
		base := ln * len(last)
		if !marked {
			g.Decode(base, cfg)
			for i, v := range last {
				cfg[d-1] = v
				dst[base+i] = eval.GPrepared(cfg)
			}
			continue
		}
		decoded := false
		for i, v := range last {
			if dst[base+i] != unsolvedMark {
				continue
			}
			if !decoded {
				g.Decode(base, cfg)
				decoded = true
			}
			cfg[d-1] = v
			gv := eval.GPrepared(cfg)
			dst[base+i] = gv
			if add != nil {
				add[base+i] += gv
			}
			solved++
		}
	}
	return solved
}
