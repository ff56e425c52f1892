package solver

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/costfn"
	"repro/internal/grid"
	"repro/internal/model"
)

// layerEvaluator adds the operating costs g_t(x) of a whole DP layer. It
// owns the two fast paths of the solver's dominant kernel:
//
//   - A slot-keyed layer memo: slots with identical content (λ, counts,
//     capacities, cost functions, γ) share one evaluation process-wide
//     (see gcache.go) — periodic traces, Algorithm C's sub-slots and the
//     suite's OPT-plus-trackers pile-up all collapse to single sweeps.
//   - A persistent worker pool: with Workers > 1 the lattice lines are
//     statically partitioned over goroutines started once per evaluator
//     (not per layer). Workers own their model.Evaluator (scratch buffers
//     and the dispatch warm-start state are not safe for concurrent use)
//     and walk their lines in grid order, so the dispatch dual moves
//     monotonically along each line and successive solves warm-start each
//     other. Results are bit-identical for any worker count: g_t is a pure
//     function and the warm-started dual is canonical (hint-independent).
type layerEvaluator struct {
	ins     *model.Instance
	gamma   float64
	noMemo  bool
	workers int
	pool    *gWorkerPool // non-nil when workers > 1

	eval *model.Evaluator // serial path
	cfg  model.Config
	gbuf []float64 // pure g-layer scratch for slots the memo misses
	last []float64 // pure g-layer of the last slot added: gbuf or a read-only memo entry
	sig  gcacheSig // reusable signature buffers

	t      int  // the slot of the last layer
	ready  bool // eval is prepared for slot t
	solved int  // dispatch programs solved for layers, over the evaluator's life

	// partial reports that gbuf holds a partial g-layer (begin returned
	// nil) of the slot keyed prev. A memo-admitted evaluation of the same
	// key right after it, as Algorithm C's sub-slots make, keeps its
	// solved cells.
	partial bool
	prev    gcacheSig

	// admit makes begin insert every layer it misses at first sight,
	// bypassing the doorkeeper. Trackers bound to an instance set it:
	// an offline sweep's layers are typically swept again (LowMemory's
	// backward pass, the suite's online algorithms over the instance
	// its optimum was solved on).
	admit bool
}

// newLayerEvaluator builds an evaluator; opts.Workers <= 1 evaluates
// serially, Workers == AutoWorkers uses one worker per available CPU.
func newLayerEvaluator(ins *model.Instance, opts Options) *layerEvaluator {
	workers := opts.Workers
	if workers == AutoWorkers {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	le := &layerEvaluator{
		ins:     ins,
		gamma:   opts.Gamma,
		noMemo:  opts.NoMemo || memoOff,
		workers: workers,
		eval:    model.NewEvaluator(ins),
		cfg:     make(model.Config, ins.D()),
	}
	d := ins.D()
	le.sig.gamma = opts.Gamma
	le.sig.caps = make([]float64, d)
	for j, st := range ins.Types {
		le.sig.caps[j] = st.MaxLoad
	}
	// The remembered key shares the signature's allocations; the
	// capacities are the evaluator's own, so both read one array.
	counts, fns := make([]int, 2*d), make([]costfn.Func, 2*d)
	le.sig.counts, le.prev.counts = counts[:0:d], counts[d:d]
	le.sig.fns, le.prev.fns = fns[:0:d], fns[d:d]
	le.prev.caps = le.sig.caps
	if workers > 1 {
		le.pool = newGWorkerPool(ins, workers)
		// The pool's goroutines reference only the pool, so the cleanup
		// can stop them once the evaluator itself becomes unreachable
		// (long-lived PrefixTrackers are never explicitly closed).
		runtime.AddCleanup(le, func(p *gWorkerPool) { p.close() }, le.pool)
	}
	return le
}

// close releases the worker pool early (function-scoped solvers defer it;
// the AddCleanup above covers everyone else). Idempotent.
func (le *layerEvaluator) close() {
	if le.pool != nil {
		le.pool.close()
	}
}

// AutoWorkers selects one DP worker per available CPU.
const AutoWorkers = -1

// signature keys slot t's layer content for the memo, reusing the
// evaluator's buffers. ok is false when the slot is not memoisable (a
// cost-function family the fingerprint does not know).
func (le *layerEvaluator) signature(t int) (*gcacheSig, bool) {
	if le.noMemo {
		return nil, false
	}
	s := &le.sig
	s.lambda = le.ins.Lambda[t-1]
	s.counts = s.counts[:0]
	s.fns = s.fns[:0]
	h := newKeyHash()
	h.f64(s.lambda)
	h.f64(s.gamma)
	for j := 0; j < le.ins.D(); j++ {
		c := le.ins.CountAt(t, j)
		s.counts = append(s.counts, c)
		h.u64(uint64(c))
		h.f64(s.caps[j])
		f := le.ins.Types[j].Cost.At(t)
		if !fnFingerprint(&h, f) {
			return nil, false
		}
		s.fns = append(s.fns, f)
	}
	s.hash = uint64(h)
	return s, true
}

// addG adds g_t(x) to every cell of the layer (indexed by g's lattice)
// and keeps the slot's pure g-layer in le.last: the memo's vector on a
// hit, gbuf otherwise. Slots the memo cannot key are evaluated into gbuf
// too and then added, which rounds exactly like adding in place.
func (le *layerEvaluator) addG(layer []float64, t int, g *grid.Grid) {
	le.t, le.ready, le.partial = t, false, false
	sig, memo := le.signature(t)
	if memo {
		if cached, hit := gcacheGet(sig); hit && len(cached) == len(layer) {
			le.add(layer, cached)
			return
		}
	}
	gb := le.full(len(layer), t, g)
	if memo {
		gcachePut(sig, gb)
	}
	le.add(layer, gb)
}

// add adds the slot's g-layer gl to layer and keeps gl as the last one.
func (le *layerEvaluator) add(layer, gl []float64) {
	for i, v := range gl {
		layer[i] += v
	}
	le.last = gl
}

// full evaluates every cell of slot t's layer into gbuf and returns it.
func (le *layerEvaluator) full(n, t int, g *grid.Grid) []float64 {
	gb := le.buf(n)
	le.walk(gb, nil, false, t, g)
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

// begin opens slot t's layer for a caller that solves only some of its
// cells (see prune.go) and returns the whole g-layer when it is at hand:
// a memo hit, or a layer it admits into the memo, evaluated in full and
// inserted — under le.admit every one, else one whose signature the
// memo has seen once before (the doorkeeper, see gcache.go). Otherwise
// it returns nil and le.last is gbuf with every cell unsolved (NaN), for
// the caller to mark cells unsolvedMark and solve them with
// solveMarked; no layer of it enters the memo.
func (le *layerEvaluator) begin(n, t int, g *grid.Grid) []float64 {
	le.t, le.ready = t, false
	partial := le.partial
	le.partial = false
	sig, memo := le.signature(t)
	if memo {
		if cached, hit := gcacheGet(sig); hit && len(cached) == n {
			le.last = cached
			return cached
		}
		if le.admit || gcacheSeen(sig) {
			var gb []float64
			if partial && le.prev.equal(sig) && len(le.gbuf) >= n {
				// g_t is pure: the partial layer's solved cells stand.
				gb = le.gbuf[:n]
				for i, v := range gb {
					if v != v {
						gb[i] = unsolvedMark
					}
				}
				le.walk(gb, nil, true, t, g)
			} else {
				gb = le.full(n, t, g)
			}
			gcachePut(sig, gb)
			le.last = gb
			return gb
		}
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
	le.walk(le.last, layer, true, le.t, g)
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

// prepare resolves slot le.t on the serial evaluator, once per layer.
func (le *layerEvaluator) prepare() {
	if !le.ready {
		le.eval.PrepareSlot(le.t)
		le.ready = true
	}
}

// walk computes g_t into dst as walkLines does, fanning lattice lines
// out over the pool when one is attached.
func (le *layerEvaluator) walk(dst, add []float64, marked bool, t int, g *grid.Grid) {
	lineLen := len(g.Axis(g.D() - 1))
	lines := len(dst) / lineLen
	if le.pool == nil || lines < 2 || len(dst) < 2*le.workers {
		le.prepare()
		le.solved += walkLines(le.eval, le.cfg, dst, add, marked, g, 0, lines)
		return
	}
	le.solved += le.pool.run(dst, add, marked, t, g, lines)
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

// gWorkerPool is a persistent pool of layer-evaluation goroutines. One
// task per worker and per layer is sent over a buffered channel; the
// static line partition keeps the output independent of scheduling.
type gWorkerPool struct {
	workers int
	evals   []*model.Evaluator
	cfgs    []model.Config
	solved  []int // per worker, cells its last task solved
	tasks   chan gTask
	wg      sync.WaitGroup
	once    sync.Once
	stop    chan struct{}
}

// gTask is one worker's share of a layer: lattice lines [loLine, hiLine).
type gTask struct {
	dst, add       []float64
	marked         bool
	t              int
	g              *grid.Grid
	loLine, hiLine int
	w              int
}

func newGWorkerPool(ins *model.Instance, workers int) *gWorkerPool {
	p := &gWorkerPool{
		workers: workers,
		evals:   make([]*model.Evaluator, workers),
		cfgs:    make([]model.Config, workers),
		solved:  make([]int, workers),
		tasks:   make(chan gTask, workers),
		stop:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.evals[i] = model.NewEvaluator(ins)
		p.cfgs[i] = make(model.Config, ins.D())
	}
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *gWorkerPool) work() {
	for {
		select {
		case task := <-p.tasks:
			p.evals[task.w].PrepareSlot(task.t)
			p.solved[task.w] = walkLines(p.evals[task.w], p.cfgs[task.w], task.dst, task.add,
				task.marked, task.g, task.loLine, task.hiLine)
			p.wg.Done()
		case <-p.stop:
			return
		}
	}
}

// run evaluates one layer through the pool, as walkLines does, and
// blocks until it is done; it returns the cells a marked walk solved
// (0 for a full one). Chunks are static (worker w always gets the same
// lines for the same layer shape) and each task uses its own evaluator,
// so the computation is deterministic regardless of scheduling.
func (p *gWorkerPool) run(dst, add []float64, marked bool, t int, g *grid.Grid, lines int) int {
	chunk := (lines + p.workers - 1) / p.workers
	n := 0
	for w := 0; w < p.workers && w*chunk < lines; w++ {
		n++
	}
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > lines {
			hi = lines
		}
		p.tasks <- gTask{dst: dst, add: add, marked: marked, t: t, g: g, loLine: lo, hiLine: hi, w: w}
	}
	p.wg.Wait()
	solved := 0
	for w := 0; w < n; w++ {
		solved += p.solved[w]
	}
	return solved
}

func (p *gWorkerPool) close() {
	p.once.Do(func() { close(p.stop) })
}
