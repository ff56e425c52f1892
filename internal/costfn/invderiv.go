package costfn

import (
	"math"
	"sort"
)

// Invertible is implemented by cost functions that can invert their
// derivative analytically. The dispatch solver's water-filling uses it to
// evaluate the optimal per-type volume for a dual multiplier ν in O(1),
// which keeps g_t(x) evaluation fast inside the DP solvers.
type Invertible interface {
	Differentiable
	// InvDeriv returns the largest load z >= 0 whose right-derivative is
	// <= nu, +Inf if the derivative never exceeds nu, and 0 if already
	// Deriv(0) > nu. For convex f this is well defined (the sublevel set
	// of a non-decreasing derivative is an interval starting at 0).
	InvDeriv(nu float64) float64
}

// InvDeriv implements Invertible. The derivative is identically 0, so any
// load satisfies Deriv <= nu for nu >= 0.
func (c Constant) InvDeriv(nu float64) float64 {
	if nu >= 0 {
		return math.Inf(1)
	}
	return 0
}

// InvDeriv implements Invertible: the derivative is the constant Rate.
func (a Affine) InvDeriv(nu float64) float64 {
	if nu >= a.Rate {
		return math.Inf(1)
	}
	return 0
}

// InvDeriv implements Invertible: f'(z) = Coef·Exp·z^(Exp−1).
func (p Power) InvDeriv(nu float64) float64 {
	if nu < 0 {
		return 0
	}
	if p.Coef == 0 {
		return math.Inf(1)
	}
	if p.Exp == 1 {
		if nu >= p.Coef {
			return math.Inf(1)
		}
		return 0
	}
	if p.Exp == 2 {
		// The power 1/(Exp−1) is 1, which math.Pow returns its base for.
		return nu / (p.Coef * 2)
	}
	// z = (nu / (Coef·Exp))^(1/(Exp−1)); nu = 0 gives z = 0.
	return math.Pow(nu/(p.Coef*p.Exp), 1/(p.Exp-1))
}

// InvDeriv implements Invertible: scan breakpoints for the last segment
// whose slope is <= nu.
func (p PiecewiseLinear) InvDeriv(nu float64) float64 {
	n := len(p.zs)
	if n == 1 {
		if nu >= 0 {
			return math.Inf(1)
		}
		return 0
	}
	// slopes[i] is the slope of the segment [zs[i], zs[i+1]); they are
	// non-decreasing by construction, so binary-search the first slope
	// exceeding nu.
	i := sort.Search(n-1, func(i int) bool {
		slope := (p.vs[i+1] - p.vs[i]) / (p.zs[i+1] - p.zs[i])
		return slope > nu
	})
	if i == n-1 {
		// Even the final (extrapolated) slope is <= nu.
		return math.Inf(1)
	}
	return p.zs[i]
}

// InvDeriv implements Invertible by delegating with a rescaled multiplier:
// (s·f)'(z) <= nu  ⇔  f'(z) <= nu/s.
func (s Scaled) InvDeriv(nu float64) float64 {
	inv, ok := s.F.(Invertible)
	if !ok {
		panic("costfn: Scaled.InvDeriv on non-invertible inner function")
	}
	return inv.InvDeriv(nu / s.Factor)
}

// AsInvertible returns f as Invertible if it (after unwrapping Scaled
// layers) supports analytic derivative inversion. Like AsDifferentiable
// it returns f itself, so it does not allocate.
func AsInvertible(f Func) (Invertible, bool) {
	if !invertible(f) {
		return nil, false
	}
	return f.(Invertible), true
}

// invertible reports whether f supports analytic derivative inversion,
// unwrapping Scaled.
func invertible(f Func) bool {
	switch v := f.(type) {
	case Scaled:
		return invertible(v.F)
	case Invertible:
		return true
	default:
		return false
	}
}
