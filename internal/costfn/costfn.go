// Package costfn provides the library of per-server operating-cost
// functions used by the right-sizing model.
//
// The paper models the operating cost of one server of type j running at
// load z ∈ [0, zmax_j] during one time slot as a convex, increasing,
// non-negative function f(z). f(0) is the idle cost. Different capacities
// are expressed through zmax (model layer), not through the function itself.
//
// All implementations in this package are immutable values, safe for
// concurrent use, and valid on the whole non-negative axis (the model layer
// never evaluates beyond the server capacity).
package costfn

import (
	"fmt"
	"math"
	"sort"
)

// Func is a per-server operating-cost function of the load z for a single
// time slot. Implementations must be convex, non-decreasing and
// non-negative on the domain where they are evaluated.
type Func interface {
	// Value returns the operating cost at load z >= 0.
	Value(z float64) float64
}

// Differentiable is implemented by cost functions exposing their
// right-derivative. The dispatch solver uses it for an exact water-filling
// fast path; functions without it are handled by derivative-free search.
type Differentiable interface {
	Func
	// Deriv returns the right-derivative of the cost at load z >= 0.
	// For a convex function it is non-decreasing in z.
	Deriv(z float64) float64
}

// Constant is the load-independent cost f(z) = C. It models the special
// case of the paper's Corollary 9 (ratio 2d) and of the predecessor paper
// [Albers–Quedenfeld, CIAC 2021].
type Constant struct {
	C float64
}

// Value implements Func.
func (c Constant) Value(float64) float64 { return c.C }

// Deriv implements Differentiable.
func (c Constant) Deriv(float64) float64 { return 0 }

// String describes the function.
func (c Constant) String() string { return fmt.Sprintf("const(%g)", c.C) }

// Affine is f(z) = Idle + Rate·z: an idle floor plus energy proportional to
// load. This is the classic "servers idle at half peak power" model from the
// data-center measurement literature cited in the paper's introduction.
type Affine struct {
	Idle float64 // f(0), the idle operating cost
	Rate float64 // marginal cost per unit load
}

// Value implements Func.
func (a Affine) Value(z float64) float64 { return a.Idle + a.Rate*z }

// Deriv implements Differentiable.
func (a Affine) Deriv(float64) float64 { return a.Rate }

// String describes the function.
func (a Affine) String() string { return fmt.Sprintf("affine(%g+%g·z)", a.Idle, a.Rate) }

// Power is f(z) = Idle + Coef·z^Exp with Exp >= 1, the superlinear
// dynamic-power model (CPU voltage/frequency scaling): the paper's
// introduction cites cubic-like growth of power with frequency. Exp = 2
// gives the common quadratic speed-scaling cost.
type Power struct {
	Idle float64 // f(0)
	Coef float64 // coefficient of the load-dependent term, >= 0
	Exp  float64 // exponent, >= 1 for convexity
}

// Value implements Func. The quadratic forms z² as z·z, which rounds as
// math.Pow(z, 2) does wherever the square is normal, and z >= 2^-500
// ensures that (TestPowerValueMatchesPow). That case is kept small
// enough for the compiler to inline at call sites on a Power value.
func (p Power) Value(z float64) float64 {
	if p.Exp == 2 && z >= minSquare {
		return p.Idle + p.Coef*(z*z)
	}
	return p.value(z)
}

// value is Value for the other exponents and loads; z^1 is z.
func (p Power) value(z float64) float64 {
	if z <= 0 {
		return p.Idle
	}
	if p.Exp == 1 {
		return p.Idle + p.Coef*z
	}
	return p.Idle + p.Coef*math.Pow(z, p.Exp)
}

// minSquare is the smallest load whose square Power.Value forms as z·z:
// below it the square may be subnormal, where math.Pow's scaled product
// and a plain multiplication can round differently.
const minSquare = 0x1p-500

// Deriv implements Differentiable.
func (p Power) Deriv(z float64) float64 {
	if p.Exp == 1 {
		return p.Coef
	}
	if z <= 0 {
		return 0
	}
	return p.Coef * p.Exp * math.Pow(z, p.Exp-1)
}

// String describes the function.
func (p Power) String() string {
	return fmt.Sprintf("power(%g+%g·z^%g)", p.Idle, p.Coef, p.Exp)
}

// PiecewiseLinear is a convex increasing piecewise-linear cost given by
// breakpoints. It models measured (tabulated) energy curves. Construct it
// with NewPiecewiseLinear, which validates convexity and monotonicity.
type PiecewiseLinear struct {
	zs []float64 // breakpoint loads, strictly increasing, zs[0] == 0
	vs []float64 // cost at each breakpoint
}

// NewPiecewiseLinear builds a piecewise-linear cost from breakpoints
// (z_i, v_i). Requirements: at least one point, z strictly increasing
// starting at 0, values non-negative and non-decreasing, and slopes
// non-decreasing (convexity). Beyond the last breakpoint the final slope is
// extrapolated.
func NewPiecewiseLinear(zs, vs []float64) (PiecewiseLinear, error) {
	if len(zs) == 0 || len(zs) != len(vs) {
		return PiecewiseLinear{}, fmt.Errorf("costfn: need equal, non-empty breakpoint slices (got %d, %d)", len(zs), len(vs))
	}
	if zs[0] != 0 {
		return PiecewiseLinear{}, fmt.Errorf("costfn: first breakpoint must be at z=0, got %g", zs[0])
	}
	if vs[0] < 0 {
		return PiecewiseLinear{}, fmt.Errorf("costfn: negative cost %g at z=0", vs[0])
	}
	prevSlope := math.Inf(-1)
	for i := 1; i < len(zs); i++ {
		if zs[i] <= zs[i-1] {
			return PiecewiseLinear{}, fmt.Errorf("costfn: breakpoints must be strictly increasing (index %d)", i)
		}
		if vs[i] < vs[i-1] {
			return PiecewiseLinear{}, fmt.Errorf("costfn: cost must be non-decreasing (index %d)", i)
		}
		slope := (vs[i] - vs[i-1]) / (zs[i] - zs[i-1])
		if slope < prevSlope-1e-12 {
			return PiecewiseLinear{}, fmt.Errorf("costfn: slopes must be non-decreasing for convexity (index %d)", i)
		}
		prevSlope = slope
	}
	p := PiecewiseLinear{zs: append([]float64(nil), zs...), vs: append([]float64(nil), vs...)}
	return p, nil
}

// MustPiecewiseLinear is NewPiecewiseLinear that panics on invalid input.
// Intended for package-level declarations of known-good curves.
func MustPiecewiseLinear(zs, vs []float64) PiecewiseLinear {
	p, err := NewPiecewiseLinear(zs, vs)
	if err != nil {
		panic(err)
	}
	return p
}

// Value implements Func.
func (p PiecewiseLinear) Value(z float64) float64 {
	n := len(p.zs)
	if z <= 0 {
		return p.vs[0]
	}
	if z >= p.zs[n-1] {
		if n == 1 {
			return p.vs[0]
		}
		slope := (p.vs[n-1] - p.vs[n-2]) / (p.zs[n-1] - p.zs[n-2])
		return p.vs[n-1] + slope*(z-p.zs[n-1])
	}
	// First breakpoint strictly greater than z.
	i := sort.SearchFloat64s(p.zs, z)
	if p.zs[i] == z {
		return p.vs[i]
	}
	frac := (z - p.zs[i-1]) / (p.zs[i] - p.zs[i-1])
	return p.vs[i-1] + frac*(p.vs[i]-p.vs[i-1])
}

// Deriv implements Differentiable (right-derivative at breakpoints).
func (p PiecewiseLinear) Deriv(z float64) float64 {
	n := len(p.zs)
	if n == 1 {
		return 0
	}
	if z >= p.zs[n-1] {
		return (p.vs[n-1] - p.vs[n-2]) / (p.zs[n-1] - p.zs[n-2])
	}
	if z < 0 {
		z = 0
	}
	i := sort.SearchFloat64s(p.zs, z)
	if i < n && p.zs[i] == z {
		// right-derivative: slope of the segment starting at z.
		return (p.vs[i+1] - p.vs[i]) / (p.zs[i+1] - p.zs[i])
	}
	return (p.vs[i] - p.vs[i-1]) / (p.zs[i] - p.zs[i-1])
}

// String describes the function.
func (p PiecewiseLinear) String() string {
	return fmt.Sprintf("piecewise(%d points)", len(p.zs))
}

// NumBreakpoints returns the number of breakpoints.
func (p PiecewiseLinear) NumBreakpoints() int { return len(p.zs) }

// Breakpoint returns the i-th breakpoint (z_i, v_i). Together with
// NumBreakpoints it exposes the curve's content (the solver's layer memo
// fingerprints cost functions by value).
func (p PiecewiseLinear) Breakpoint(i int) (z, v float64) { return p.zs[i], p.vs[i] }

// Scaled multiplies an underlying cost function by a positive Factor.
// The paper's Section 3.2 uses it to build the modified instance Ĩ, where
// each sub-slot carries cost f̃(z) = f(z)/ñ_t; scaling preserves convexity,
// monotonicity and non-negativity.
type Scaled struct {
	F      Func
	Factor float64
}

// Value implements Func.
func (s Scaled) Value(z float64) float64 { return s.Factor * s.F.Value(z) }

// Deriv implements Differentiable when the underlying function does;
// otherwise it panics (the dispatch layer checks with a type assertion on
// the wrapper only after checking the wrapped function).
func (s Scaled) Deriv(z float64) float64 {
	d, ok := s.F.(Differentiable)
	if !ok {
		panic("costfn: Scaled.Deriv on non-differentiable inner function")
	}
	return s.Factor * d.Deriv(z)
}

// String describes the function.
func (s Scaled) String() string { return fmt.Sprintf("%g×%v", s.Factor, s.F) }

// differentiable returns whether f exposes a usable derivative, unwrapping
// Scaled.
func differentiable(f Func) bool {
	switch v := f.(type) {
	case Scaled:
		return differentiable(v.F)
	case Differentiable:
		return true
	default:
		return false
	}
}

// AsDifferentiable returns f as Differentiable if it (after unwrapping
// Scaled layers) exposes a derivative.
func AsDifferentiable(f Func) (Differentiable, bool) {
	if !differentiable(f) {
		return nil, false
	}
	return f.(Differentiable), true
}

// Validate samples f on [0, zmax] and checks the model contract:
// non-negative, non-decreasing, and midpoint-convex up to tolerance. It is
// a test/fuzzing helper for user-supplied cost functions; the built-in
// families satisfy the contract by construction.
func Validate(f Func, zmax float64, samples int) error {
	if samples < 3 {
		samples = 3
	}
	step := zmax / float64(samples-1)
	prev := math.Inf(-1)
	vals := make([]float64, samples)
	for i := 0; i < samples; i++ {
		z := float64(i) * step
		v := f.Value(z)
		if v < 0 {
			return fmt.Errorf("costfn: negative cost %g at z=%g", v, z)
		}
		if v < prev-1e-9*(1+math.Abs(prev)) {
			return fmt.Errorf("costfn: decreasing cost at z=%g (%g -> %g)", z, prev, v)
		}
		vals[i] = v
		prev = v
	}
	for i := 1; i+1 < samples; i++ {
		mid := vals[i]
		chord := (vals[i-1] + vals[i+1]) / 2
		if mid > chord+1e-9*(1+math.Abs(chord)) {
			return fmt.Errorf("costfn: convexity violated near z=%g", float64(i)*step)
		}
	}
	return nil
}
