package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for each list.
	for _, c := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 12, 11, 30, 9}, [3]float64{9.5, 11, 21}},
	} {
		if got := quartiles(c.values); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		head   []float64
		better string
		want   string
	}{
		{"same", scale(1, base), "lower", "ok"},
		{"within the bound", scale(1.05, base), "lower", "ok"},
		{"worse by more than the bound", scale(1.2, base), "lower", "regressed"},
		{"lower is worse for higher-better", scale(0.8, base), "higher", "regressed"},
		{"spread wider than the bound", wide, "lower", "unresolved"},
		{"every run better despite the spread", []float64{10, 50, 20, 90, 30}, "lower", "ok"},
	} {
		if got := judge(base, c.head, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClaim(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	win := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if c := judgeClaim(base, win, "lower"); !c.met || c.wins != 10 {
		t.Errorf("a clear 10%% gain: %+v", c)
	}
	// Nine wins of ten, but within the base's own spread.
	near := []float64{99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 100.5}
	if c := judgeClaim(base, near, "lower"); c.met {
		t.Errorf("a gain inside the base spread was met: %+v", c)
	}
	// A large median gain that loses two pairs of ten.
	mixed := append([]float64{}, win...)
	mixed[0], mixed[1] = 120, 130
	if c := judgeClaim(base, mixed, "lower"); c.met || c.wins != 8 {
		t.Errorf("eight wins of ten was met: %+v", c)
	}
	if c := judgeClaim(base, scale(1.1, base), "higher"); !c.met {
		t.Errorf("a higher-is-better gain: %+v", c)
	}
}

func scale(f float64, xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f * x
	}
	return out
}
