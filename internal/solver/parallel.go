package solver

import (
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
		noMemo:  opts.NoMemo,
		workers: workers,
		eval:    model.NewEvaluator(ins),
		cfg:     make(model.Config, ins.D()),
	}
	le.sig.gamma = opts.Gamma
	le.sig.caps = make([]float64, ins.D())
	for j, st := range ins.Types {
		le.sig.caps[j] = st.MaxLoad
	}
	le.sig.counts = make([]int, 0, ins.D())
	le.sig.fns = make([]costfn.Func, 0, ins.D())
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
	h := newFnv()
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
	sig, memo := le.signature(t)
	if memo {
		if cached, hit := gcacheGet(sig); hit && len(cached) == len(layer) {
			le.add(layer, cached)
			return
		}
	}
	if cap(le.gbuf) < len(layer) {
		le.gbuf = make([]float64, len(layer))
	}
	gb := le.gbuf[:len(layer)]
	le.evalCells(gb, t, g)
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

// evalCells computes g_t over the lattice into dst, fanning lattice lines
// out over the pool when one is attached.
func (le *layerEvaluator) evalCells(dst []float64, t int, g *grid.Grid) {
	lineLen := len(g.Axis(g.D() - 1))
	lines := len(dst) / lineLen
	if le.pool == nil || lines < 2 || len(dst) < 2*le.workers {
		walkLines(le.eval, le.cfg, dst, t, g, 0, lines)
		return
	}
	le.pool.run(dst, t, g, lines)
}

// walkLines evaluates lattice lines [loLine, hiLine) of slot t, which it
// resolves once (counts, capacities, cost functions and the dispatch type
// table): one Decode per line, then the contiguous last-dimension run
// with only the final coordinate changing — cheap decodes and monotone
// dual movement for the dispatch warm start.
func walkLines(eval *model.Evaluator, cfg model.Config, dst []float64, t int, g *grid.Grid, loLine, hiLine int) {
	eval.PrepareSlot(t)
	d := g.D()
	last := g.Axis(d - 1)
	for ln := loLine; ln < hiLine; ln++ {
		base := ln * len(last)
		g.Decode(base, cfg)
		for i, v := range last {
			cfg[d-1] = v
			dst[base+i] = eval.GPrepared(cfg)
		}
	}
}

// gWorkerPool is a persistent pool of layer-evaluation goroutines. One
// task per worker and per layer is sent over a buffered channel; the
// static line partition keeps the output independent of scheduling.
type gWorkerPool struct {
	workers int
	evals   []*model.Evaluator
	cfgs    []model.Config
	tasks   chan gTask
	wg      sync.WaitGroup
	once    sync.Once
	stop    chan struct{}
}

// gTask is one worker's share of a layer: lattice lines [loLine, hiLine).
type gTask struct {
	dst            []float64
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
			walkLines(p.evals[task.w], p.cfgs[task.w], task.dst, task.t, task.g,
				task.loLine, task.hiLine)
			p.wg.Done()
		case <-p.stop:
			return
		}
	}
}

// run evaluates one layer through the pool and blocks until it is done.
// Chunks are static (worker w always gets the same lines for the same
// layer shape) and each task uses its own evaluator, so the computation
// is deterministic regardless of scheduling.
func (p *gWorkerPool) run(dst []float64, t int, g *grid.Grid, lines int) {
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
		p.tasks <- gTask{dst: dst, t: t, g: g, loLine: lo, hiLine: hi, w: w}
	}
	p.wg.Wait()
}

func (p *gWorkerPool) close() {
	p.once.Do(func() { close(p.stop) })
}
