// Package dispatch solves the intra-slot load-assignment problem of the
// right-sizing model: given the numbers of active servers per type, split
// the arriving job volume λ across the types so the total operating cost is
// minimal. This evaluates the paper's Equation (1),
//
//	g_t(x_1, …, x_d) = min_{z ∈ Z} Σ_j g_{t,j}(x_j, z_j),
//
// where Z is the probability simplex over the d types and
// g_{t,j}(x, z) = x·f_{t,j}(λ_t z / x). By Lemma 2 (Jensen), jobs assigned
// to a type are spread evenly over its active servers, which is what the
// x·f(λz/x) form encodes.
//
// Substituting y_j = λ z_j turns the problem into a separable convex
// program with one coupling constraint:
//
//	min Σ_j φ_j(y_j)   s.t.  Σ_j y_j = λ,  0 ≤ y_j ≤ x_j·zmax_j,
//	φ_j(y) = x_j · f_j(y / x_j).
//
// The solver performs water-filling on the dual: for a multiplier ν, each
// type's optimal volume y_j(ν) is the largest y with φ'_j(y) ≤ ν, clamped
// to its capacity; Σ_j y_j(ν) is non-decreasing in ν, so an outer root
// search finds the ν* that meets the demand. Cost functions implementing
// costfn.Invertible give y_j(ν) in closed form; differentiable functions
// use derivative bisection; opaque functions fall back to golden-section
// search on the Lagrangian.
//
// # Canonical duals and warm starts
//
// The dual search defines its answer combinatorially so that it does not
// depend on how the root is located: with hi the smallest power of two in
// [1, 2^200] whose absorbed volume covers λ and h = hi/2^47, the canonical
// ν* is the midpoint of the unique dyadic cell [k·h, (k+1)·h] where the
// absorbed volume crosses λ (exactly the final bracket of a classic
// midpoint bisection of [0, hi] to the legacy 1e-14·hi tolerance). Any
// correct bracketing search lands on the same cell, so a Solver may carry
// the previous solve's (hi, ν*) as a warm start — walking a DP lattice
// line in grid order moves ν* monotonically and slowly — and still return
// results bit-for-bit identical to a cold solve.
//
// The search uses the shape of the absorbed volume, as the water-filling
// of Lin, Wierman, Andrew and Thereska's right-sizing model does. Type j
// saturates at σ_j = f_j'(zmax_j); the volume jumps there for constant,
// affine and linear-power costs and has a kink for the strictly convex
// ones, and between the σ_j it is smooth (linear for quadratic costs). A
// binary search over the σ_j inside the bracket leaves it on one smooth
// piece. A crossing at a jump then sits at the bracket's top, and one sum
// at the cell edge just below closes the cell. On the piece, secant steps
// rounded to cell edges close a linear piece in two sums, and an ITP-style
// projection towards the midpoint bounds the steps on any other. Since
// the volume is monotone, a bracket inside one cell is that cell: no sum
// at its edges is needed. On the heterogeneous fleet's 11×7×4 lattice
// a dense walk, every cell in lattice order, averages about two volume
// sums per cell (TestDualSearchWork) and 3.6 per dual solve under a
// diurnal trace. A prefix tracker's memo-miss layer solves only the
// cells its prune pass keeps, so successive solves lie farther apart:
// 5.3 sums per dual solve on the same trace.
//
// # Per-slot type tables
//
// A DP layer solves this program for every cell of a lattice, and the
// cells of one slot differ only in their active counts. Solver.Prepare
// therefore resolves the slot's types once into a table: each type's
// plan kind, capacity, f_j(0) and σ_j, plus the σ_j sorted for the
// breakpoint search. A cell (CostPrepared, AssignPrepared) then reads
// only its counts and λ. The stock families Constant, Affine and Power
// are kept as concrete values and called directly, and their volume
// y_j(ν) is written out: a step at σ_j for Constant, Affine and linear
// Power, ν/(2·Coef) for the quadratic. Every other family keeps the
// interface it resolved to. Both give the interface methods' bits
// (TestPreparedTableMatchesInterfacePath).
package dispatch

import (
	"math"

	"repro/internal/costfn"
	"repro/internal/numeric"
)

// Server describes one server type's state within a single time slot.
type Server struct {
	Active int         // number of active servers x_j (>= 0)
	Cap    float64     // per-server capacity zmax_j (> 0)
	F      costfn.Func // operating-cost function f_{t,j} for this slot
}

// Assignment is the result of an optimal load split.
type Assignment struct {
	// Cost is g_t(x): the minimal total operating cost. It is +Inf when
	// the active servers cannot absorb the demand (infeasible slot) and 0
	// only if every type is inactive and the demand is zero.
	Cost float64
	// Y[j] is the job volume routed to type j; Σ Y = λ for feasible calls.
	Y []float64
	// Z[j] is the fraction of λ routed to type j (Y[j]/λ); all zero when
	// λ = 0.
	Z []float64
}

// Assign computes the optimal split of job volume lambda across the server
// types. It never mutates its input. The semantics at the edges follow the
// paper's definition of g_{t,j}:
//   - lambda == 0: nothing to route; cost is the idle cost of all active
//     servers.
//   - lambda > 0 with zero total capacity: cost +Inf (x_j = 0 and
//     λ_t z_j > 0 is forbidden, and capacities bound the rest).
//
// Assign allocates its result; inside hot loops use Solver.Cost or
// Solver.AssignInto, which reuse buffers.
func Assign(servers []Server, lambda float64) Assignment {
	var sv Solver
	var res Assignment
	sv.AssignInto(servers, lambda, &res)
	return res
}

// Warm carries the dual bracket of a previous solve as a starting hint for
// the next one. The zero value means "no hint" (cold solve). Warm starts
// never change results — the dual search's answer is canonical (see the
// package comment) — they only cut the number of water-filling
// evaluations when consecutive solves have nearby duals.
type Warm struct {
	// Hi is the previous solve's dyadic upper bracket (a power of two).
	Hi float64
	// Nu is the previous solve's dual multiplier ν*.
	Nu float64
}

// Solver evaluates optimal assignment costs while reusing internal scratch
// buffers across calls, and carries the previous solve's dual as a warm
// start for the next one. The zero value is ready to use. A Solver is not
// safe for concurrent use; create one per goroutine.
//
// A slot is solved in two steps: Prepare resolves the slot's server types
// into a type table once, then CostPrepared and AssignPrepared solve one
// cell each from the active counts and λ alone. Cost and AssignInto do
// both steps for a single cell.
type Solver struct {
	types  []plan    // the prepared slot's type table, one plan per type
	order  []int     // monotone types by ascending σ_j (ties by index)
	counts []int     // Cost and AssignInto's active counts
	active []int     // the cell's active types (Active > 0, Cap > 0)
	lo, hi []float64 // fillVolumes scratch, per active type
	y      []float64
	brk    []float64 // sorted saturation multipliers inside the bracket
	opaque bool      // any active type on the golden-section fallback
	warm   Warm
	nu     float64 // the last solve's canonical ν*, when hasNu
	hasNu  bool
	evals  int // total() calls so far: the dual search's unit of work
}

// Cost returns g_t(x) — the minimal operating cost of routing volume
// lambda to the given active servers — without allocating. Consecutive
// calls warm-start each other; results are identical to a cold solve.
func (sv *Solver) Cost(servers []Server, lambda float64) float64 {
	return sv.CostPrepared(sv.prepareCell(servers), lambda)
}

// AssignInto computes Assign's result into res, reusing its Y/Z buffers —
// the allocation-free path for callers that hold an Assignment across
// calls (model.Evaluator.Split reports per-slot load splits through it).
func (sv *Solver) AssignInto(servers []Server, lambda float64, res *Assignment) {
	sv.AssignPrepared(sv.prepareCell(servers), lambda, res)
}

// prepareCell prepares the servers' types and returns their active
// counts in the solver's buffer.
func (sv *Solver) prepareCell(servers []Server) []int {
	sv.Prepare(servers)
	for j, s := range servers {
		sv.counts[j] = s.Active
	}
	return sv.counts
}

// Prepare resolves the slot's server types into the solver's type table:
// each type's capacity and cost function (Active is not read), its plan
// kind, f_j(0) and saturation multiplier σ_j = f_j'(Cap). Cells of the
// slot are then solved by CostPrepared and AssignPrepared, which repeat
// none of this per cell. Prepare allocates only when the number of types
// grows.
func (sv *Solver) Prepare(servers []Server) {
	d := len(servers)
	if cap(sv.types) < d {
		ints := make([]int, 3*d)
		sv.types, sv.brk = make([]plan, d), make([]float64, 0, d)
		sv.counts, sv.order, sv.active = ints[:d:d], ints[d:d:2*d], ints[2*d:2*d]
	}
	sv.types, sv.counts = sv.types[:d], sv.counts[:d]
	order := sv.order[:0]
	for j, s := range servers {
		p := &sv.types[j]
		p.resolve(s)
		if p.kind == planOpaque || p.sigma != p.sigma {
			continue // no breakpoint: opaque, or a NaN σ no bracket holds
		}
		// Insertion sort: d is small, and equal σ keep index order.
		k := len(order)
		order = append(order, j)
		for k > 0 && sv.types[order[k-1]].sigma > p.sigma {
			order[k] = order[k-1]
			k--
		}
		order[k] = j
	}
	sv.order = order
}

// CostPrepared returns g_t(x) for the prepared slot with counts[j]
// active servers of type j: Cost for the same servers, bit for bit.
// counts must have one entry per prepared type.
func (sv *Solver) CostPrepared(counts []int, lambda float64) float64 {
	if cap(sv.y) < len(counts) {
		sv.y = make([]float64, len(counts))
	}
	return sv.solve(counts, lambda, sv.y[:len(counts)])
}

// AssignPrepared is AssignInto for the prepared slot with counts[j]
// active servers of type j.
func (sv *Solver) AssignPrepared(counts []int, lambda float64, res *Assignment) {
	d := len(counts)
	if cap(res.Y) < d {
		res.Y = make([]float64, d)
	}
	if cap(res.Z) < d {
		res.Z = make([]float64, d)
	}
	res.Y, res.Z = res.Y[:d], res.Z[:d]
	res.Cost = sv.solve(counts, lambda, res.Y)
	for j := range res.Z {
		res.Z[j] = 0
	}
	if lambda > 0 {
		for j := range res.Z {
			res.Z[j] = res.Y[j] / lambda
		}
	}
}

// Warm returns the dual warm-start state left by the last solve.
func (sv *Solver) Warm() Warm { return sv.warm }

// Dual returns the canonical dual multiplier ν* of the last solve: the
// marginal cost at which the water-filling met the demand. Like the
// cost, it does not depend on the warm-start history. It is NaN when the
// last solve ran no dual search: λ = 0, an infeasible cell, a cell with
// a single active type, or no solve yet. Warm's Nu is no substitute: a
// solve that runs no search leaves the previous solve's hint in place.
func (sv *Solver) Dual() float64 {
	if !sv.hasNu {
		return math.NaN()
	}
	return sv.nu
}

// SetWarm installs a warm-start hint, typically taken from a neighbouring
// solve's Warm(). Invalid hints are ignored by the search.
func (sv *Solver) SetWarm(w Warm) { sv.warm = w }

// ResetWarm clears the warm-start state (the next solve runs cold).
func (sv *Solver) ResetWarm() { sv.warm = Warm{} }

// solve computes the optimal cost of the prepared slot's cell with
// counts[j] active servers of type j, and writes the per-type volumes into
// y (which must have len(counts) entries).
func (sv *Solver) solve(counts []int, lambda float64, y []float64) float64 {
	if !(lambda >= 0) {
		panic("dispatch: negative or NaN job volume")
	}
	if len(counts) != len(sv.types) {
		panic("dispatch: active counts do not match the prepared types")
	}
	for j := range y {
		y[j] = 0
	}
	sv.hasNu = false

	// One pass plans the cell: the idle cost and capacity of every type
	// with servers, and the active types' per-cell fields.
	idle := 0.0
	totalCap := 0.0
	sv.active = sv.active[:0]
	sv.opaque = false
	for j, c := range counts {
		if c < 0 {
			panic("dispatch: negative active-server count")
		}
		p := &sv.types[j]
		p.on = false
		if c == 0 {
			continue
		}
		p.x = float64(c)
		p.cap = p.x * p.zmax
		idle += p.x * p.f0
		totalCap += p.cap
		if p.zmax > 0 {
			p.on = true
			sv.active = append(sv.active, j)
			sv.opaque = sv.opaque || p.kind == planOpaque
		}
	}

	if lambda == 0 {
		return idle
	}
	if totalCap < lambda*(1-1e-12) {
		return math.Inf(1)
	}
	if len(sv.active) == 1 {
		p := &sv.types[sv.active[0]]
		y[sv.active[0]] = math.Min(lambda, p.cap)
		return p.phi(y[sv.active[0]])
	}

	nuStar := sv.solveDual(lambda)
	sv.nu, sv.hasNu = nuStar, true
	sv.fillVolumes(lambda, nuStar, y)

	// phi(y) is the complete cost (idle + load) of a type's active
	// servers, so summing over active types is the whole slot cost.
	cost := 0.0
	for _, j := range sv.active {
		cost += sv.types[j].phi(y[j])
	}
	return cost
}

// plan is one server type's entry in the solver's type table: what
// Prepare resolved for the slot, plus the fields of the cell being
// solved. The stock families Constant, Affine and Power keep their
// concrete values, so the water-filling calls their methods directly —
// bit-identical to the interface calls, without the dynamic dispatch;
// every other family keeps the interface it resolved to.
type plan struct {
	kind uint8   // planConstant … planOpaque
	zmax float64 // per-server capacity zmax_j
	f0   float64 // f_j(0), the idle cost of one server
	d0   float64 // f_j'(0) (differentiable plans)
	// sigma = f'(zmax) is the saturation multiplier: y(ν) = cap for ν ≥ σ.
	// The total jumps there for Constant, Affine and linear Power, and
	// has a kink for the strictly convex families.
	sigma float64

	// Constant, Affine and linear Power absorb nothing below the
	// multiplier thr and their whole capacity from it on: a step.
	step bool
	thr  float64

	con  costfn.Constant
	aff  costfn.Affine
	pow  costfn.Power
	c2   float64               // 2·Coef (planQuadratic)
	inv  costfn.Invertible     // planInvertible
	diff costfn.Differentiable // planDifferentiable
	f    costfn.Func

	// The cell being solved.
	on  bool    // active in the cell
	x   float64 // float64(Active)
	cap float64 // x·zmax
	nu  float64 // multiplier read by lagrangian (opaque plans)
}

const (
	planConstant       = iota // costfn.Constant: a volume step at ν = 0
	planAffine                // costfn.Affine: a volume step at ν = Rate
	planQuadratic             // costfn.Power, Exp 2, Coef ≠ 0: volume x·ν/(2·Coef), inline
	planPower                 // other costfn.Power, called directly; Exp 1 and Coef ≥ 0 step at ν = Coef
	planInvertible            // any other costfn.Invertible: closed-form volumes
	planDifferentiable        // derivative bisection
	planOpaque                // golden-section search on the Lagrangian
)

// resolve fills the plan's slot fields for server type s.
func (p *plan) resolve(s Server) {
	*p = plan{zmax: s.Cap, f: s.F}
	switch f := s.F.(type) {
	case costfn.Constant:
		p.kind, p.con = planConstant, f
		p.step, p.thr = true, 0
	case costfn.Affine:
		p.kind, p.aff = planAffine, f
		p.step, p.thr = true, f.Rate
	case costfn.Power:
		p.kind, p.pow = planPower, f
		switch {
		case f.Exp == 1 && f.Coef >= 0:
			p.step, p.thr = true, f.Coef
		case f.Exp == 2 && f.Coef != 0:
			p.kind, p.c2 = planQuadratic, f.Coef*2
		}
	default:
		if inv, ok := costfn.AsInvertible(f); ok {
			p.kind, p.inv = planInvertible, inv
		} else if diff, ok := costfn.AsDifferentiable(f); ok {
			p.kind, p.diff = planDifferentiable, diff
			p.d0 = diff.Deriv(0)
		} else {
			p.kind = planOpaque
		}
	}
	p.f0 = s.F.Value(0)
	if p.kind != planOpaque {
		p.sigma = s.F.(costfn.Differentiable).Deriv(s.Cap)
	}
}

// value returns f_j(z).
func (p *plan) value(z float64) float64 {
	switch p.kind {
	case planConstant:
		return p.con.Value(z)
	case planAffine:
		return p.aff.Value(z)
	case planPower, planQuadratic:
		return p.pow.Value(z)
	}
	return p.f.Value(z)
}

// phi evaluates φ_j(y) = x_j f_j(y/x_j), the total cost of the cell's
// type-j servers when routed volume y.
func (p *plan) phi(y float64) float64 {
	if y <= 0 {
		return p.x * p.f0
	}
	return p.x * p.value(y/p.x)
}

// lagrangian is φ_j(y) − ν·y, which the opaque path minimises.
func (p *plan) lagrangian(y float64) float64 { return p.phi(y) - p.nu*y }

// volumeAt returns y_j(ν): the volume type j absorbs at dual multiplier ν.
// It is the minimiser of φ_j(y) − ν·y over [0, cap_j], which for convex φ
// is the largest y in the capacity interval with φ'_j(y) ≤ ν.
func (p *plan) volumeAt(nu float64) float64 {
	if p.step {
		// InvDeriv is +Inf from thr on and 0 below it.
		if nu >= p.thr {
			return p.cap
		}
		return 0
	}
	var z float64 // φ'(y) = f'(y/x) ≤ ν  ⇔  y ≤ x·z
	switch p.kind {
	case planQuadratic:
		// Power.InvDeriv of a quadratic with Coef ≠ 0, inline.
		if nu < 0 {
			return 0
		}
		z = nu / p.c2
	case planPower:
		z = p.pow.InvDeriv(nu)
	case planInvertible:
		z = p.inv.InvDeriv(nu)
	case planDifferentiable:
		if p.d0 >= nu {
			return 0
		}
		if p.sigma <= nu {
			return p.cap
		}
		z = numeric.BisectIncreasing(p.diff.Deriv, nu, 0, p.zmax, 1e-13*p.zmax)
	default:
		p.nu = nu
		y, _ := numeric.MinimizeConvex(p.lagrangian, 0, p.cap, 1e-13*math.Max(p.cap, 1))
		return y
	}
	return numeric.Clamp(p.x*z, 0, p.cap)
}

// total returns Σ_j y_j(ν) over the active types, non-decreasing in ν.
func (sv *Solver) total(nu float64) float64 {
	sv.evals++
	sum := 0.0
	for _, j := range sv.active {
		sum += sv.types[j].volumeAt(nu)
	}
	return sum
}

const (
	// dualBits fixes the dyadic resolution h = hi/2^47 of the canonical
	// dual: 47 halvings are what a midpoint bisection of [0, hi] performs
	// before its width drops under the legacy tolerance 1e-14·max(hi, 1).
	dualBits  = 47
	dualCells = 1 << dualBits
)

// maxDualHi caps the geometric bracket growth at 2^200, matching the
// legacy doubling loop's iteration cap.
var maxDualHi = math.Ldexp(1, 200)

// solveDual finds the canonical dual multiplier ν* at which the absorbed
// volume meets lambda. The search is warm-started from sv.warm when
// available and always lands on the same answer as a cold solve: the
// midpoint of the dyadic cell where Σ y_j(ν) crosses lambda.
func (sv *Solver) solveDual(lambda float64) float64 {
	warm := sv.warm
	if sv.opaque {
		// Golden-section-evaluated totals jitter non-monotonically at the
		// ~1e-13 scale — wider than a dyadic cell — so the cell a
		// bracketing search lands on would depend on where the hint made
		// it start. Hints are ignored and the solve runs the hint-free
		// reference bisection: slower, but deterministic for any call
		// history.
		warm = Warm{}
	}
	v0 := sv.total(0)
	if v0 >= lambda {
		sv.warm = Warm{Hi: math.Max(warm.Hi, 1), Nu: 0}
		return 0
	}

	// Settle hi on the smallest power of two in [1, 2^200] whose absorbed
	// volume reaches lambda, starting from the warm bracket when present.
	// The last power read below lambda on the way is a lower bracket.
	hi := 1.0
	if warm.Hi >= 1 && warm.Hi <= maxDualHi {
		hi = warm.Hi
	}
	a, va := 0.0, v0
	v := sv.total(hi)
	if v < lambda {
		for hi < maxDualHi && v < lambda {
			a, va = hi, v
			hi *= 2
			v = sv.total(hi)
		}
	} else {
		for hi > 1 {
			vv := sv.total(hi / 2)
			if vv < lambda {
				a, va = hi/2, vv
				break
			}
			hi /= 2
			v = vv
		}
	}
	if v <= lambda {
		// Exact hit at the bracket, or demand beyond the growth cap.
		sv.warm = Warm{Hi: hi, Nu: hi}
		return hi
	}
	if sv.opaque {
		nu := sv.dualBisect(hi, lambda)
		sv.warm = Warm{Hi: hi, Nu: nu}
		return nu
	}

	// Bracketed root search on [a, b] down to one dyadic cell, keeping
	// total(a) < lambda <= total(b). The warm dual seeds the bracket when
	// it lies inside.
	h := hi / dualCells
	b, vb := hi, v
	if nu := warm.Nu; nu > a && nu < b {
		if vn := sv.total(nu); vn < lambda {
			a, va = nu, vn
		} else {
			b, vb = nu, vn
		}
	}
	// Binary-search the saturation multipliers inside the bracket, which
	// leaves [a, b] on one smooth piece of the total. Its jumps sit at
	// these multipliers and the total is right-continuous, so a crossing
	// at a jump is now at b: the cell edge just below b closes it in one
	// sum, and otherwise trades vb for the piece's value below the jump,
	// which is what the secant needs.
	atBreak := false
	for brk := sv.breakpoints(a, b); len(brk) > 0; {
		m := len(brk) / 2
		if vm := sv.total(brk[m]); vm < lambda {
			a, va = brk[m], vm
			brk = brk[m+1:]
		} else {
			b, vb = brk[m], vm
			brk, atBreak = brk[:m], true
		}
	}
	if e := (math.Ceil(b/h) - 1) * h; atBreak && e > a {
		if ve := sv.total(e); ve < lambda {
			a, va = e, ve
		} else {
			b, vb = e, ve
		}
	}

	// Root search on the piece: Illinois-weighted secant steps, each
	// rounded to the nearest cell edge inside the bracket, so a step near
	// the root closes the cell from one side and the next step from the
	// other; a linear piece closes in two sums. A secant estimate at or
	// past a bracket end probes the cell edge next to that end. As in the
	// ITP method (Oliveira and Takahashi, 2021), each step is kept within
	// r of the midpoint, r shrinking so that the search takes at most
	// about dualSlack steps beyond what plain bisection of [a, b] would:
	// flat totals near the root or a jump inside the piece cannot stall
	// it.
	fa, fb := va-lambda, vb-lambda
	side := 0
	_, n := math.Frexp((b - a) / h) // bisection needs at most n steps
	rad := math.Ldexp(h/2, n+dualSlack)
	for i := 0; i < maxDualSteps && b > (math.Floor(a/h)+1)*h; i, rad = i+1, rad/2 {
		w := b - a
		mid := a + w/2
		r := math.Max(rad-w/2, 0)
		s := math.Max(mid-r, math.Min(a-fa*w/(fb-fa), mid+r))
		e := cellEdge(s, a, b, h)
		if ve := sv.total(e); ve < lambda {
			a, fa = e, ve-lambda
			if side < 0 {
				fb /= 2
			}
			side = -1
		} else {
			b, fb = e, ve-lambda
			if side > 0 {
				fa /= 2
			}
			side = 1
		}
	}

	// The total is monotone, so every edge at or below a reads below
	// lambda and every edge at or above b reads at least lambda: a bracket
	// inside one cell is the canonical cell (a/h is exact, h being a power
	// of two). Should the search ever stop short of one cell, the reference
	// bisection, which terminates unconditionally, gives the answer.
	var nu float64
	if k := math.Floor(a / h); b > (k+1)*h {
		nu = sv.dualBisect(hi, lambda)
	} else {
		nu = (k + 0.5) * h
	}
	sv.warm = Warm{Hi: hi, Nu: nu}
	return nu
}

// breakpoints returns the active types' saturation multipliers strictly
// inside (a, b), sorted and without duplicates, in the solver's reused
// buffer. Prepare sorted them for the slot, so a cell only filters.
func (sv *Solver) breakpoints(a, b float64) []float64 {
	brk := sv.brk[:0]
	for _, j := range sv.order {
		p := &sv.types[j]
		if !p.on || !(p.sigma > a && p.sigma < b) {
			continue
		}
		if n := len(brk); n > 0 && brk[n-1] == p.sigma {
			continue
		}
		brk = append(brk, p.sigma)
	}
	sv.brk = brk
	return brk
}

// cellEdge rounds the probe s to the nearest multiple of h strictly inside
// (a, b). The bracket must span more than one cell, so one exists.
func cellEdge(s, a, b, h float64) float64 {
	e := math.Round(s/h) * h
	if e <= a {
		e = (math.Floor(a/h) + 1) * h
	}
	if e >= b {
		e = (math.Ceil(b/h) - 1) * h
	}
	return e
}

// dualSlack is how many steps beyond plain bisection the root search may
// take: the price of trying secant steps, paid only on totals where they
// fail.
const dualSlack = 8

// maxDualSteps caps the root search. The ITP bound keeps it to about
// 48 + dualSlack steps, so the cap only guards against a total that is not
// monotone after all.
const maxDualSteps = 256

// dualBisect is the legacy midpoint bisection of [0, hi]: 47 halvings,
// then the final bracket's midpoint. It is the reference the fast path's
// answer is defined by, and the hint-free fallback for totals the fast
// search cannot trust.
func (sv *Solver) dualBisect(hi, lambda float64) float64 {
	a, b := 0.0, hi
	for i := 0; i < dualBits; i++ {
		mid := a + (b-a)/2
		if sv.total(mid) < lambda {
			a = mid
		} else {
			b = mid
		}
	}
	return a + (b-a)/2
}

// fillVolumes assigns exact volumes at the (approximately) optimal dual
// multiplier. Because Σ y_j(ν) can jump at ν* (ties between linear
// segments), it interpolates between the volumes just below and just above
// ν*; any point on that segment has identical marginal cost, so the
// interpolation preserves optimality while making Σ y_j = λ exact.
func (sv *Solver) fillVolumes(lambda, nuStar float64, y []float64) {
	active := sv.active
	delta := 1e-9 * (1 + math.Abs(nuStar))
	if cap(sv.lo) < len(active) {
		sv.lo = make([]float64, len(active))
		sv.hi = make([]float64, len(active))
	}
	lo, hi := sv.lo[:len(active)], sv.hi[:len(active)]
	var sumLo, sumHi float64
	for i, j := range active {
		lo[i] = sv.types[j].volumeAt(nuStar - delta)
		hi[i] = sv.types[j].volumeAt(nuStar + delta)
		sumLo += lo[i]
		sumHi += hi[i]
	}
	theta := 0.0
	if sumHi > sumLo {
		theta = numeric.Clamp((lambda-sumLo)/(sumHi-sumLo), 0, 1)
	}
	sum := 0.0
	for i, j := range active {
		y[j] = lo[i] + theta*(hi[i]-lo[i])
		sum += y[j]
	}
	// Remove the residual numerically, respecting capacities. The residual
	// is O(search tolerance), so the cost impact is negligible, but an
	// exact sum keeps downstream feasibility checks crisp.
	residual := lambda - sum
	for _, j := range active {
		if residual == 0 {
			break
		}
		adj := numeric.Clamp(y[j]+residual, 0, sv.types[j].cap) - y[j]
		y[j] += adj
		residual -= adj
	}
}
