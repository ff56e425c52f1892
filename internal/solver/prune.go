package solver

import (
	"math"
	"slices"

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
// program is solved, from a lower bound on g_t(x). For nondecreasing
// cost functions g_t(x) ≥ LB(x) = Σ_j x_j·f_{t,j}(0), and, by weak
// duality for Eq. (1), g_t(x) ≥ L_ν(x) = ν·λ_t + Σ_j x_j·c_j(ν) for every
// multiplier ν, where c_j(ν) = min over 0 ≤ z ≤ zmax_j of f_{t,j}(z) − ν·z
// (LB is L_0). Per slot, with h_t = relax(D_{t−1}):
//
//   - The candidates are the pruneCands cells of least h_t + LB (ties to
//     the lower index), the cells most likely to be the new optimum. They
//     are solved first, on the serial evaluator, which also reports each
//     one's canonical dual ν* (model.Evaluator.Dual).
//   - For each candidate's ν*, c_j(ν*) is computed once per type: in
//     closed form for Constant, Affine and linear and quadratic Power,
//     and as f_{t,j}(0) − ν·zmax_j, a lower bound for any nondecreasing
//     f, for the other families (dualShape).
//   - Every other cell x whose h_t(x) + L(x), L = max(LB, L_ν* of each
//     candidate), exceeds U_c(x) + margin, where U_c(x) = D_t(c) +
//     Σ_j β_j (x_j − c_j)⁺, for a candidate c is strictly dominated by c:
//     it is set to +Inf unsolved. The first candidate is tried first, the
//     second only on the cells that survive it. The remaining cells are
//     solved in lattice order.
//
// Cells whose capacity certainly falls short of λ_t are +Inf without a
// solve. The margin, pruneMargin·(1 + |U_c(x)| + Σ_j β_j·m_j + M), with
// M = max over the candidates of ν*·λ_t + Σ_j m_j·(|f_{t,j}(0)| +
// ν*·zmax_j) ≥ ν*·λ_t + Σ_j x_j·|c_j(ν*)|, exceeds every rounding error
// of the sums, of the bounds (whose terms reach M where they cancel)
// and of relax's float chain, whose intermediate terms reach β_j·m_j.
// So a pruned cell loses every min it took part in by more than
// rounding: every later layer's surviving cells, the prefix optima,
// their argmins and Solve's schedules keep their bits. It also lies far
// outside OptRange's 1e-12 tie band.
//
// Which cells a layer prunes is a function of h_t and the slot alone:
// the candidates' g and ν* are pure functions of the slot and the cell,
// never of a warm start; and pruning changes no cell of the next h (a
// pruned cell never wins relax's min). The rule saves dispatch solves
// only on a partial layer, a memo miss's: a memo hit, like any step
// whose g-layer begin evaluated whole, defers the rule to AppendState,
// the one reader that sees +Inf cells. Its step adds the whole g-layer
// to every cell, which leaves every surviving cell, optimum, argmin,
// OptRange and relax of the layer bit for bit those of the pruned layer;
// settle later recomputes h_t = relax(D_{t−1}), solves the candidates
// again for their duals and runs the pass against the same g-layer, as
// the miss would have. So a hit, a miss, the memo switched off and every
// worker count leave the same bytes. The first slot, a slot whose
// lattice changed and a slot with a cost function not known to be
// nondecreasing are not pruned.
//
// On the heterogeneous fleet under fresh demand the tracker solves
// 18.4% of the feasible cells (TestPrunedLayerSolvesFewCells), 48.4 a
// slot, against 37.7% and 99.2 a slot with one candidate and LB alone.
// A sweep of pruneCands on the same trace read 62.6, 48.4, 42.3, 39.7
// and 36.1 solves a slot for 1, 2, 3, 4 and 6 candidates. Each candidate
// also adds its U_c and its bound to the pass over the cells, and past
// two the solves saved no longer clearly pay for that in push time.

// pruneMargin is the relative margin of the pruning test (see above).
const pruneMargin = 1e-9

// pruneCands is the number of candidates a prune pass solves first.
const pruneCands = 2

// Test switches, for the differentials that compare pruned and
// unpruned sweeps (export_test.go): trackers built while pruneOff is set
// evaluate every cell, and layer evaluators built while memoOff is set
// neither read nor fill the layer memo.
var pruneOff, memoOff bool

// floors resolves the slot's lower-bound table, f_{t,j}(0), the
// capacity and the dualShape of every type, and reports whether the slot
// may be pruned: every cost function belongs to a family known to be
// nondecreasing, and the table's values are finite.
func (p *PrefixTracker) floors() bool {
	if !p.prune {
		return false
	}
	for j, f := range p.cur.Costs {
		st := &p.fleet[j]
		if !nondecreasing(f) {
			return false
		}
		f0 := f.Value(0)
		if math.IsInf(f0, 0) || f0 != f0 || math.IsInf(st.MaxLoad, 0) || !(st.MaxLoad > 0) {
			return false
		}
		p.f0[j], p.zmax[j] = f0, st.MaxLoad
		p.rate[j], p.quad[j] = dualShape(f)
	}
	return true
}

// dualShape returns what dualFloor needs of a nondecreasing f to bound
// c(ν) = min over 0 ≤ z ≤ zmax of f(z) − ν·z: the coefficient a > 0 of a
// quadratic Power, else the rate r from which on a step family
// (Constant, Affine, linear Power) absorbs its capacity. Every other
// family gets r = 0, whose f(0) − ν·zmax bounds c(ν) from below for any
// nondecreasing f and ν ≥ 0.
func dualShape(f costfn.Func) (r, a float64) {
	switch v := f.(type) {
	case costfn.Affine:
		return v.Rate, 0
	case costfn.Power:
		switch {
		case v.Exp == 1:
			return v.Coef, 0
		case v.Exp == 2 && v.Coef > 0:
			return 0, v.Coef
		}
	}
	return 0, 0
}

// dualFloor returns c(ν), or a lower bound on it, for ν ≥ 0 and a type
// with idle cost f0, capacity zmax and dualShape (r, a): the minimum of
// f0 + a·z² − ν·z at z = min(ν/2a, zmax) for a quadratic, else
// f0 − (ν − r)⁺·zmax.
func dualFloor(f0, zmax, r, a, nu float64) float64 {
	if a > 0 {
		z := min(nu/(2*a), zmax)
		return f0 + a*(z*z) - nu*z
	}
	return f0 - max(nu-r, 0)*zmax
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
// candidates: the pruneCands indices of least h + LB in ascending order
// of it, ties to the lower index, −1 past the cells finite there. It
// sums the bound and the capacity over all types but the last once per
// lattice line, with an odometer over those types' levels (in p.cfg)
// instead of Decode.
func (p *PrefixTracker) floorLayer(h []float64, g *grid.Grid) (lb []float64, cands [pruneCands]int) {
	lb = p.rx.scratch(3, len(h))
	d := g.D()
	last := g.Axis(d - 1)
	f0, zmax := p.f0[d-1], p.zmax[d-1]
	need := math.Inf(-1)
	if lambda := p.cur.Lambda; lambda > 0 {
		need = lambda * (1 - 1e-12) * (1 - pruneMargin)
	}
	inf := math.Inf(1)
	var best [pruneCands]float64
	for k := range cands {
		cands[k], best[k] = -1, inf
	}
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
			if c := hl[k] + l; c < best[pruneCands-1] {
				n := pruneCands - 1
				for ; n > 0 && c < best[n-1]; n-- {
					cands[n], best[n] = cands[n-1], best[n-1]
				}
				cands[n], best[n] = base+k, c
			}
		}
		nextLine(g, lvl)
	}
	return lb, cands
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

// prunedStep adds the slot's operating costs to the relaxed layer h,
// turning it into D_t with the dominated cells pruned to +Inf (see
// above). full is the slot's whole g-layer (settle), else nil and the
// cells are solved as they are marked.
func (p *PrefixTracker) prunedStep(h []float64, g *grid.Grid, full []float64) {
	p.prunes++
	le := p.le
	gl := le.last
	lb, cands := p.floorLayer(h, g)
	inf := math.Inf(1)
	d := g.D()
	lambda := p.cur.Lambda

	// The candidates, solved first on the serial evaluator for their
	// duals (settle's layer holds their g already, but not their duals).
	// D_t(c) is +Inf for an absent candidate. A candidate without a
	// positive finite dual bounds with c_j = f_{t,j}(0), that is with LB.
	// slack is the margin's part that does not depend on U_c(x).
	var da, nu [pruneCands]float64
	slack, floor, capacity := 1.0, 0.0, 0.0
	for j, beta := range p.betas {
		m := float64(g.Axis(j)[len(g.Axis(j))-1])
		slack += beta * m
		floor += m * math.Abs(p.f0[j])
		capacity += m * p.zmax[j]
	}
	bound := 0.0
	for k, a := range cands {
		da[k], nu[k] = inf, 0
		if a >= 0 {
			xa := p.cand[k*d : (k+1)*d]
			g.Decode(a, xa)
			if v := le.dual(a, xa); v > 0 && v < inf {
				nu[k] = v
			}
			da[k] = h[a] + gl[a]
		}
		c := p.coef[k*d : (k+1)*d]
		for j := range c {
			c[j] = dualFloor(p.f0[j], p.zmax[j], p.rate[j], p.quad[j], nu[k])
		}
		bound = max(bound, nu[k]*(lambda+capacity)+floor)
	}
	slack += bound

	// Prune the cells a candidate dominates by more than the margin; mark
	// the rest for solving. U_c(x) − D_t(c) and the duals' bounds sum
	// over all types but the last once per lattice line, with an odometer
	// over their levels. The candidates, solved already, are tested like
	// any cell but never marked, and get their D_t back after the pass.
	last, betaL := g.Axis(d-1), p.betas[d-1]
	n := len(last)
	var up0, l0, cL [pruneCands]float64
	var aL [pruneCands]int
	for k := range cands {
		aL[k], cL[k] = p.cand[k*d+d-1], p.coef[k*d+d-1]
	}
	lvl := p.cfg[:d-1]
	clear(lvl)
	marked := false
	for base := 0; base < len(h); base += n {
		for k := range cands {
			xa, c := p.cand[k*d:(k+1)*d], p.coef[k*d:(k+1)*d]
			up0[k], l0[k] = da[k], nu[k]*lambda
			for j, l := range lvl {
				x := g.Axis(j)[l]
				if up := x - xa[j]; up > 0 {
					up0[k] += p.betas[j] * float64(up)
				}
				l0[k] += float64(x) * c[j]
			}
		}
		hs, lbs, gs := h[base:base+n], lb[base:base+n], gl[base:base+n]
	cells:
		for k, v := range last {
			l := lbs[k]
			if l == inf {
				hs[k] = inf // infeasible
				if full == nil {
					gs[k] = inf
				}
				continue
			}
			x := float64(v)
			for c := range cands {
				if b := l0[c] + x*cL[c]; b > l {
					l = b
				}
			}
			l += hs[k]
			for c := range cands {
				u := up0[c]
				if up := v - aL[c]; up > 0 {
					u += betaL * float64(up)
				}
				if l > u+pruneMargin*(slack+math.Abs(u)) {
					hs[k] = inf // dominated
					continue cells
				}
			}
			if full != nil {
				hs[k] += gs[k]
			} else if !slices.Contains(cands[:], base+k) {
				gs[k], marked = unsolvedMark, true
			}
		}
		nextLine(g, lvl)
	}
	for k, a := range cands {
		if a >= 0 {
			h[a] = da[k]
		}
	}
	if marked {
		le.solveMarked(h, g)
	}
}

// settle runs the prune pass a step deferred (see above): it relaxes
// D_{t−1}, still in spare, into relaxer scratch, prunes that against the
// slot's whole g-layer le.last, which begin left in place (a memo entry
// is immutable), solving the candidates again for their duals, and
// copies the result over the layer. The step's floors
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
