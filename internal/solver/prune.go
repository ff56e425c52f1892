package solver

import (
	"math"

	"repro/internal/costfn"
	"repro/internal/grid"
)

// Dominance pruning of DP layers: a labeling rule in the sense of Vilela
// & Martinelli's layered shortest paths (arXiv 2112.04045).
//
// Cell x of layer D_t is dominated when D_t(x) ≥ D_t(y) + Σ_j β_j (x_j − y_j)⁺
// for some y ≠ x. Powering down is free and β(·)⁺ obeys the triangle
// inequality, so such a cell never attains a later layer's minimum, the
// prefix optimum or a schedule's predecessor: it may as well be +Inf. A
// strictly dominated cell can often be recognised before its dispatch
// program is solved, because g_t(x) ≥ LB(x) = Σ_j x_j·f_{t,j}(0) for
// nondecreasing cost functions. Per slot, with h_t = relax(D_{t−1}):
//
//   - The candidate a is the argmin of h_t + LB, the cell most likely to
//     be the new optimum. It is solved first.
//   - Every other cell x with h_t(x) + LB(x) > U(x) + margin, where
//     U(x) = D_t(a) + Σ_j β_j (x_j − a_j)⁺, is strictly dominated by a:
//     it is set to +Inf unsolved. The remaining cells are solved in
//     lattice order.
//
// Cells whose capacity certainly falls short of λ_t are +Inf without a
// solve. The margin, pruneMargin·(1 + |U(x)| + Σ_j β_j·m_j), exceeds
// every rounding error of the sums and of relax's float chain, whose
// intermediate terms reach β_j·m_j, so a pruned cell loses every min it
// took part in by more than rounding: every later layer's surviving
// cells, the prefix optima, their argmins and Solve's schedules keep
// their bits. It also lies far outside OptRange's 1e-12 tie band.
//
// Which cells a layer prunes is a function of h_t and the slot alone, and
// pruning changes no cell of the next h (a pruned cell never wins relax's
// min). The rule saves dispatch solves only on a partial layer, a memo
// miss's: a memo hit, like any step whose g-layer begin evaluated whole,
// defers the rule to AppendState, the one reader that sees +Inf cells.
// Its step adds the whole g-layer to every cell, which leaves every
// surviving cell, optimum, argmin, OptRange and relax of the layer bit
// for bit those of the pruned layer; settle later recomputes
// h_t = relax(D_{t−1}) and runs the pass against the same g-layer, as the
// miss would have. So a hit, a miss, the memo switched off and every
// worker count leave the same bytes. The first slot, a slot whose
// lattice changed and a slot with a cost function not known to be
// nondecreasing are not pruned.
//
// One dominator is enough: on the heterogeneous fleet under fresh demand
// the tracker solves 37.7% of the feasible cells with it. Relaxing the
// cells left undominated by the previous layer as a set of dominators
// brings that to 30.5%, but its second relax sweep costs about what the
// extra solves do on a memo miss, and on a memo hit it is pure overhead.

// pruneMargin is the relative margin of the pruning test (see above).
const pruneMargin = 1e-9

// Test switches, for the differentials that compare pruned and
// unpruned sweeps (export_test.go): trackers built while pruneOff is set
// evaluate every cell, and layer evaluators built while memoOff is set
// neither read nor fill the layer memo.
var pruneOff, memoOff bool

// floors resolves the slot's lower-bound table, f_{t,j}(0) and the
// capacity of every type, and reports whether the slot may be pruned:
// every cost function belongs to a family known to be nondecreasing, and
// the table's values are finite.
func (p *PrefixTracker) floors() bool {
	if !p.prune {
		return false
	}
	for j := range p.f0 {
		st := &p.ins.Types[j]
		f := st.Cost.At(1)
		if !nondecreasing(f) {
			return false
		}
		f0 := f.Value(0)
		if math.IsInf(f0, 0) || f0 != f0 || math.IsInf(st.MaxLoad, 0) || !(st.MaxLoad > 0) {
			return false
		}
		p.f0[j], p.zmax[j] = f0, st.MaxLoad
	}
	return true
}

// nondecreasing reports whether f belongs to a stock family whose
// parameters make it nondecreasing on z ≥ 0.
func nondecreasing(f costfn.Func) bool {
	switch v := f.(type) {
	case costfn.Constant:
		return true
	case costfn.Affine:
		return v.Rate >= 0
	case costfn.Power:
		return v.Coef >= 0 && v.Exp >= 0
	case costfn.Exponential:
		return v.Amp >= 0 && v.Rate >= 0
	case costfn.PiecewiseLinear:
		n := v.NumBreakpoints()
		prev := math.Inf(-1)
		for i := 0; i < n; i++ {
			_, c := v.Breakpoint(i)
			if !(c >= prev) {
				return false
			}
			prev = c
		}
		return n > 0
	case costfn.Scaled:
		return v.Factor >= 0 && nondecreasing(v.F)
	}
	return false
}

// floorLayer writes LB(x) for every cell of g into relaxer scratch 3,
// +Inf where x's capacity falls short of λ_t by far more than rounding
// (dispatch's test is capacity < λ(1−1e-12)), and returns it with the
// candidate: the lowest index minimising h + LB, or −1 when every cell
// is +Inf there. It sums the bound and the capacity over all types but
// the last once per lattice line, with an odometer over those types'
// levels (in p.cfg) instead of Decode.
func (p *PrefixTracker) floorLayer(h []float64, g *grid.Grid) (lb []float64, cand int) {
	lb = p.rx.scratch(3, len(h))
	d := g.D()
	last := g.Axis(d - 1)
	f0, zmax := p.f0[d-1], p.zmax[d-1]
	need := math.Inf(-1)
	if lambda := p.ins.Lambda[0]; lambda > 0 {
		need = lambda * (1 - 1e-12) * (1 - pruneMargin)
	}
	inf := math.Inf(1)
	cand, best := -1, inf
	lvl := p.cfg[:d-1]
	clear(lvl)
	for base := 0; base < len(lb); base += len(last) {
		lb0, cap0 := 0.0, 0.0
		for j, l := range lvl {
			x := float64(g.Axis(j)[l])
			lb0 += x * p.f0[j]
			cap0 += x * p.zmax[j]
		}
		line, hl := lb[base:base+len(last)], h[base:base+len(last)]
		for k, v := range last {
			x := float64(v)
			l := lb0 + x*f0
			if cap0+x*zmax < need {
				l = inf
			}
			line[k] = l
			if c := hl[k] + l; c < best {
				cand, best = base+k, c
			}
		}
		nextLine(g, lvl)
	}
	return lb, cand
}

// nextLine advances lvl, the levels of every type but the last, to the
// next lattice line of g.
func nextLine(g *grid.Grid, lvl []int) {
	for j := len(lvl) - 1; j >= 0; j-- {
		if lvl[j]++; lvl[j] < len(g.Axis(j)) {
			return
		}
		lvl[j] = 0
	}
}

// prunedStep adds slot 1's operating costs to the relaxed layer h,
// turning it into D_t with the dominated cells pruned to +Inf (see
// above). full is the slot's whole g-layer (settle), else nil and the
// cells are solved as they are marked.
func (p *PrefixTracker) prunedStep(h []float64, g *grid.Grid, full []float64) {
	p.prunes++
	le := p.le
	gl := le.last
	lb, a := p.floorLayer(h, g)
	inf := math.Inf(1)

	// The candidate, solved first; +Inf when no cell can be feasible.
	da := inf
	if a >= 0 {
		if full != nil {
			h[a] += full[a]
		} else {
			gl[a] = unsolvedMark
			le.solveMarked(h, g)
		}
		da = h[a]
	}

	// Prune the cells the candidate dominates by more than the margin;
	// mark the rest for solving. U(x) − D_t(a) sums over all types but
	// the last once per lattice line, with an odometer over their levels.
	d := g.D()
	xa := p.cand
	if a >= 0 {
		g.Decode(a, xa)
	}
	scale := 1.0
	for j, beta := range p.betas {
		ax := g.Axis(j)
		scale += beta * float64(ax[len(ax)-1])
	}
	last, betaL := g.Axis(d-1), p.betas[d-1]
	lvl := p.cfg[:d-1]
	clear(lvl)
	marked := false
	for base := 0; base < len(h); base += len(last) {
		up0 := da
		for j, l := range lvl {
			if up := g.Axis(j)[l] - xa[j]; up > 0 {
				up0 += p.betas[j] * float64(up)
			}
		}
		for k, v := range last {
			i := base + k
			if i == a {
				continue
			}
			u := up0
			if up := v - xa[d-1]; up > 0 {
				u += betaL * float64(up)
			}
			if h[i]+lb[i] > u+pruneMargin*(scale+math.Abs(u)) {
				h[i] = inf // dominated, or infeasible
				if full == nil && lb[i] == inf {
					gl[i] = inf
				}
				continue
			}
			if full != nil {
				h[i] += full[i]
			} else {
				gl[i], marked = unsolvedMark, true
			}
		}
		nextLine(g, lvl)
	}
	if marked {
		le.solveMarked(h, g)
	}
}

// settle runs the prune pass a step deferred (see above): it relaxes
// D_{t−1}, still in spare, into relaxer scratch, prunes that against the
// slot's whole g-layer le.last, which begin left in place (a memo entry
// is immutable), and copies the result over the layer. The step's floors
// still hold f0 and zmax, and its lattice is the previous one. The
// scratch is the one relax would write its last sweep to next, so the
// rebuild costs no memory: the four scratch buffers are already sized
// to the layer, and neither sweep nor pass regrows them.
func (p *PrefixTracker) settle() {
	if !p.deferred {
		return
	}
	p.deferred = false
	g := p.curGrid
	h := p.rx.relax(p.spare, g, g, p.rx.scratch((g.D()-1)%2, len(p.layer)))
	p.prunedStep(h, g, p.le.last)
	copy(p.layer, h)
}
