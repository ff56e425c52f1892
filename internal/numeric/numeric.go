// Package numeric provides the scalar numerical routines used by the
// right-sizing library: minimisation of one-dimensional convex functions,
// root finding for monotone functions, and tolerant float comparison.
//
// All algorithms are deterministic and allocation-free so they can sit in
// the hot path of the dynamic-programming solvers.
package numeric

import "math"

// Eps is the default relative tolerance used throughout the library when
// comparing computed costs. Costs are sums of O(T·d) convex-function
// evaluations, each accurate to roughly 1e-12, so 1e-9 comfortably absorbs
// accumulated error without hiding real violations.
const Eps = 1e-9

// invPhi is 1/φ, the golden-section step ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// AlmostEqual reports whether a and b are equal up to the relative
// tolerance tol (with an absolute floor of tol for values near zero).
// Infinities compare equal only to themselves.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// LessEqual reports whether a <= b up to the relative tolerance tol.
// It is used when asserting proved inequalities on floating-point sums.
func LessEqual(a, b, tol float64) bool {
	if a <= b {
		return true
	}
	return AlmostEqual(a, b, tol)
}

// MinimizeConvex minimises the convex function f over the closed interval
// [lo, hi] using golden-section search and returns the minimising argument
// and the minimum value. The search runs until the bracket is narrower than
// tol (absolute, in argument space) and is robust to flat regions: for a
// convex f it converges to a global minimiser.
//
// MinimizeConvex panics if lo > hi. If lo == hi it returns that point.
func MinimizeConvex(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	if lo > hi {
		panic("numeric: MinimizeConvex called with lo > hi")
	}
	if lo == hi {
		return lo, f(lo)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	a, b := lo, hi
	// Interior probe points at the golden ratio split.
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	// 200 iterations shrink the bracket by invPhi^200 ≈ 1e-42; the tol
	// check exits far earlier in practice. The cap guards against
	// pathological tol values (e.g. denormals) causing an infinite loop.
	for i := 0; i < 200 && b-a > tol; i++ {
		if fc <= fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	fx = f(x)
	// The endpoints can beat the midpoint when the minimum sits exactly on
	// the boundary (common for monotone f): check them explicitly.
	if flo := f(lo); flo < fx {
		x, fx = lo, flo
	}
	if fhi := f(hi); fhi < fx {
		x, fx = hi, fhi
	}
	return x, fx
}

// BisectIncreasing finds x in [lo, hi] with g(x) ≈ target for a
// non-decreasing function g. It returns the midpoint of the final bracket.
// If g(lo) >= target it returns lo; if g(hi) <= target it returns hi.
// The bracket is shrunk until narrower than tol or 200 iterations pass.
func BisectIncreasing(g func(float64) float64, target, lo, hi, tol float64) float64 {
	if lo > hi {
		panic("numeric: BisectIncreasing called with lo > hi")
	}
	if tol <= 0 {
		tol = 1e-12
	}
	glo := g(lo)
	if glo >= target {
		return lo
	}
	ghi := g(hi)
	if ghi <= target {
		return hi
	}
	a, b := lo, hi
	for i := 0; i < 200 && b-a > tol; i++ {
		mid := a + (b-a)/2
		if mid <= a || mid >= b { // float exhaustion
			break
		}
		if g(mid) < target {
			a = mid
		} else {
			b = mid
		}
	}
	return a + (b-a)/2
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// EqualInts reports whether two int slices are elementwise identical
// (per-slot fleet-count rows, lattice shapes).
func EqualInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ClampInt limits v to the integer interval [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SumKahan returns the sum of xs using Kahan compensated summation, which
// keeps the error independent of len(xs). Schedules can span tens of
// thousands of slots, so naive summation would drift.
func SumKahan(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Kahan is the incremental form of SumKahan for streaming consumers:
// feeding x_1..x_n through Add yields exactly SumKahan({x_1..x_n}).
type Kahan struct {
	sum, comp float64
}

// Add accumulates one term.
func (k *Kahan) Add(x float64) {
	y := x - k.comp
	t := k.sum + y
	k.comp = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated running sum.
func (k *Kahan) Sum() float64 { return k.sum }

// Parts returns the accumulator's two words, the running sum and its
// compensation term, so it can be saved and rebuilt exactly (KahanOf).
func (k *Kahan) Parts() (sum, comp float64) { return k.sum, k.comp }

// KahanOf rebuilds an accumulator from the words Parts returned.
func KahanOf(sum, comp float64) Kahan { return Kahan{sum: sum, comp: comp} }

// CeilDiv returns ⌈a/b⌉ for positive b and non-negative a.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("numeric: CeilDiv with non-positive divisor")
	}
	if a < 0 {
		panic("numeric: CeilDiv with negative dividend")
	}
	return (a + b - 1) / b
}
