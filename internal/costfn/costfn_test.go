package costfn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	f := Constant{C: 4}
	for _, z := range []float64{0, 0.5, 1, 100} {
		if f.Value(z) != 4 {
			t.Errorf("Value(%g) = %g, want 4", z, f.Value(z))
		}
		if f.Deriv(z) != 0 {
			t.Errorf("Deriv(%g) = %g, want 0", z, f.Deriv(z))
		}
	}
	if err := Validate(f, 10, 50); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAffine(t *testing.T) {
	f := Affine{Idle: 2, Rate: 3}
	if f.Value(0) != 2 {
		t.Errorf("idle cost = %g, want 2", f.Value(0))
	}
	if f.Value(2) != 8 {
		t.Errorf("Value(2) = %g, want 8", f.Value(2))
	}
	if f.Deriv(1) != 3 {
		t.Errorf("Deriv = %g, want 3", f.Deriv(1))
	}
	if err := Validate(f, 10, 50); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPower(t *testing.T) {
	f := Power{Idle: 1, Coef: 2, Exp: 2}
	if f.Value(0) != 1 {
		t.Errorf("Value(0) = %g, want 1", f.Value(0))
	}
	if f.Value(3) != 19 {
		t.Errorf("Value(3) = %g, want 19", f.Value(3))
	}
	if got := f.Deriv(3); math.Abs(got-12) > 1e-12 {
		t.Errorf("Deriv(3) = %g, want 12", got)
	}
	if err := Validate(f, 5, 100); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPowerLinearExponent(t *testing.T) {
	f := Power{Idle: 0, Coef: 5, Exp: 1}
	if f.Deriv(0) != 5 || f.Deriv(2) != 5 {
		t.Error("Exp=1 power function should have constant derivative")
	}
}

func TestPowerDerivAtZero(t *testing.T) {
	f := Power{Idle: 0, Coef: 1, Exp: 3}
	if f.Deriv(0) != 0 {
		t.Errorf("Deriv(0) = %g, want 0 for Exp>1", f.Deriv(0))
	}
}

func TestPowerNumericDerivativeAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		f := Power{Idle: rng.Float64(), Coef: rng.Float64() * 5, Exp: 1 + rng.Float64()*3}
		z := rng.Float64()*4 + 0.1
		h := 1e-6
		numeric := (f.Value(z+h) - f.Value(z-h)) / (2 * h)
		if math.Abs(numeric-f.Deriv(z)) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("derivative mismatch for %v at z=%g: numeric %g, analytic %g",
				f, z, numeric, f.Deriv(z))
		}
	}
}

func TestPiecewiseLinearBasics(t *testing.T) {
	f := MustPiecewiseLinear([]float64{0, 1, 2}, []float64{1, 2, 5})
	cases := []struct{ z, want float64 }{
		{0, 1}, {0.5, 1.5}, {1, 2}, {1.5, 3.5}, {2, 5},
		{3, 8},  // extrapolated with final slope 3
		{-1, 1}, // clamped to f(0)
	}
	for _, c := range cases {
		if got := f.Value(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Value(%g) = %g, want %g", c.z, got, c.want)
		}
	}
	if got := f.Deriv(0.5); got != 1 {
		t.Errorf("Deriv(0.5) = %g, want 1", got)
	}
	if got := f.Deriv(1); got != 3 {
		t.Errorf("right-deriv at breakpoint = %g, want 3", got)
	}
	if got := f.Deriv(5); got != 3 {
		t.Errorf("Deriv beyond last point = %g, want 3", got)
	}
	if err := Validate(f, 3, 100); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPiecewiseLinearSinglePoint(t *testing.T) {
	f := MustPiecewiseLinear([]float64{0}, []float64{2})
	if f.Value(0) != 2 || f.Value(5) != 2 {
		t.Error("single-point curve should be constant")
	}
	if f.Deriv(1) != 0 {
		t.Error("single-point curve should have zero derivative")
	}
}

func TestNewPiecewiseLinearValidation(t *testing.T) {
	cases := []struct {
		name   string
		zs, vs []float64
	}{
		{"empty", nil, nil},
		{"length mismatch", []float64{0, 1}, []float64{1}},
		{"first not zero", []float64{1, 2}, []float64{1, 2}},
		{"negative cost", []float64{0, 1}, []float64{-1, 2}},
		{"not increasing z", []float64{0, 1, 1}, []float64{1, 2, 3}},
		{"decreasing cost", []float64{0, 1}, []float64{2, 1}},
		{"concave", []float64{0, 1, 2}, []float64{0, 10, 11}},
	}
	for _, c := range cases {
		if _, err := NewPiecewiseLinear(c.zs, c.vs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMustPiecewiseLinearPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustPiecewiseLinear([]float64{1}, []float64{1})
}

func TestScaled(t *testing.T) {
	f := Scaled{F: Affine{Idle: 2, Rate: 4}, Factor: 0.5}
	if f.Value(1) != 3 {
		t.Errorf("Value(1) = %g, want 3", f.Value(1))
	}
	if f.Deriv(1) != 2 {
		t.Errorf("Deriv(1) = %g, want 2", f.Deriv(1))
	}
}

type opaque struct{ Func }

func TestScaledDerivPanicsOnOpaque(t *testing.T) {
	f := Scaled{F: opaque{Constant{1}}, Factor: 2}
	// opaque embeds Func only; the embedded Constant does satisfy
	// Differentiable through promotion, so build a truly opaque one.
	_ = f
	g := Scaled{F: valueOnly{}, Factor: 2}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Deriv(1)
}

type valueOnly struct{}

func (valueOnly) Value(z float64) float64 { return z }

func TestAsDifferentiable(t *testing.T) {
	if _, ok := AsDifferentiable(Affine{1, 1}); !ok {
		t.Error("Affine should be differentiable")
	}
	if _, ok := AsDifferentiable(Scaled{F: Power{0, 1, 2}, Factor: 3}); !ok {
		t.Error("Scaled over Power should be differentiable")
	}
	if _, ok := AsDifferentiable(Scaled{F: Scaled{F: Affine{1, 1}, Factor: 2}, Factor: 3}); !ok {
		t.Error("nested Scaled should be differentiable")
	}
	if _, ok := AsDifferentiable(valueOnly{}); ok {
		t.Error("valueOnly should not be differentiable")
	}
	if _, ok := AsDifferentiable(Scaled{F: valueOnly{}, Factor: 2}); ok {
		t.Error("Scaled over opaque should not be differentiable")
	}
}

func TestValidateRejectsBadFunctions(t *testing.T) {
	if err := Validate(valueOnlyNeg{}, 1, 10); err == nil {
		t.Error("negative function should fail validation")
	}
	if err := Validate(decreasing{}, 1, 10); err == nil {
		t.Error("decreasing function should fail validation")
	}
	if err := Validate(concave{}, 1, 10); err == nil {
		t.Error("concave function should fail validation")
	}
}

type valueOnlyNeg struct{}

func (valueOnlyNeg) Value(z float64) float64 { return -1 }

type decreasing struct{}

func (decreasing) Value(z float64) float64 { return 10 - z }

type concave struct{}

func (concave) Value(z float64) float64 { return math.Sqrt(z) }

// Property: every built-in family passes Validate for random parameters.
func TestFamiliesAlwaysValidProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := []Func{
			Constant{C: rng.Float64() * 10},
			Affine{Idle: rng.Float64() * 5, Rate: rng.Float64() * 5},
			Power{Idle: rng.Float64() * 5, Coef: rng.Float64() * 5, Exp: 1 + rng.Float64()*3},
			Scaled{F: Affine{Idle: rng.Float64(), Rate: rng.Float64()}, Factor: rng.Float64()*2 + 0.01},
		}
		for _, f := range fs {
			if Validate(f, 4, 60) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PiecewiseLinear built from a random convex sequence evaluates
// exactly at its breakpoints.
func TestPiecewiseLinearInterpolatesBreakpoints(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		zs := make([]float64, n)
		vs := make([]float64, n)
		slope := rng.Float64()
		for i := 1; i < n; i++ {
			zs[i] = zs[i-1] + rng.Float64() + 0.1
			vs[i] = vs[i-1] + slope*(zs[i]-zs[i-1])
			slope += rng.Float64() // slopes non-decreasing
		}
		f, err := NewPiecewiseLinear(zs, vs)
		if err != nil {
			return false
		}
		for i := range zs {
			if math.Abs(f.Value(zs[i])-vs[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringMethods(t *testing.T) {
	for _, f := range []interface{ String() string }{
		Constant{1}, Affine{1, 2}, Power{1, 2, 3},
		MustPiecewiseLinear([]float64{0, 1}, []float64{0, 1}),
		Scaled{F: Constant{1}, Factor: 2},
	} {
		if f.String() == "" {
			t.Errorf("%T has empty String()", f)
		}
	}
}

func BenchmarkPowerValue(b *testing.B) {
	f := Power{Idle: 1, Coef: 2, Exp: 2.5}
	for i := 0; i < b.N; i++ {
		_ = f.Value(float64(i%100) / 100)
	}
}

func BenchmarkPiecewiseLinearValue(b *testing.B) {
	f := MustPiecewiseLinear(
		[]float64{0, 0.25, 0.5, 0.75, 1},
		[]float64{1, 1.2, 1.5, 2.0, 3.0},
	)
	for i := 0; i < b.N; i++ {
		_ = f.Value(float64(i%100) / 100)
	}
}

// Power.Value forms the quadratic's square as z·z from 2^-500 on and the
// linear power as z, and InvDeriv the quadratic's root as a quotient;
// each must equal the math.Pow formula bit for bit: around the guard,
// where z² or Coef·z² is subnormal or underflows, at 0, where it
// overflows to +Inf, and on random loads of every magnitude.
func TestPowerValueMatchesPow(t *testing.T) {
	zs := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1074, 0x1p-600, 0x1p-537,
		math.Nextafter(0x1p-500, 0), 0x1p-500, math.Nextafter(0x1p-500, 1), 0x1.8p-500,
		0x1p-511, 0x1p-512, 0x1p-520, 1e-150, 1e-100, 0.5, 1, 3, 1e100,
		0x1p511, math.Nextafter(0x1p512, 0), 0x1p512, 1e155, 1e200, math.MaxFloat64, math.Inf(1),
	}
	rng := rand.New(rand.NewSource(2))
	for range 200000 {
		zs = append(zs, math.Ldexp(rng.Float64(), rng.Intn(2100)-1050))
	}
	coefs := []float64{0, 1, 0.6, 2, 1e-300, 1e300, math.MaxFloat64}
	for _, coef := range coefs {
		for _, idle := range []float64{0, 1.5} {
			quad := Power{Idle: idle, Coef: coef, Exp: 2}
			lin := Power{Idle: idle, Coef: coef, Exp: 1}
			for _, z := range zs {
				want := idle
				if z > 0 {
					want = idle + coef*math.Pow(z, 2)
				}
				if got := quad.Value(z); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v.Value(%v) = %v, want %v", quad, z, got, want)
				}
				if z > 0 {
					want = idle + coef*math.Pow(z, 1)
				}
				if got := lin.Value(z); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v.Value(%v) = %v, want %v", lin, z, got, want)
				}
				if coef == 0 {
					continue
				}
				want = math.Pow(z/(coef*2), 1)
				if got := quad.InvDeriv(z); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v.InvDeriv(%v) = %v, want %v", quad, z, got, want)
				}
			}
		}
	}
}
