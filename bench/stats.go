package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile is reported only when the sample supports it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) and
// how many samples lie strictly beyond it.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i], n - 1 - i
}

// tail is quantile with the sample-support rule enforced.
func tail(sorted []float64, q float64) (float64, error) {
	v, beyond := quantile(sorted, q)
	if beyond < minBeyond {
		return v, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// pct is the nearest-rank q-quantile of sorted, 0 when there are no
// samples (a layer the workload does not reach).
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	v, _ := quantile(sorted, q)
	return v
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	v, _ := quantile(s, 0.5)
	return v
}

// in converts durations to a sorted slice in the given unit.
func in(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	slices.Sort(out)
	return out
}
