// Package perfref holds the repository's benchmark gates. A wall-time
// gate states a benchmark's time per op as a multiple of a fixed
// reference task timed alongside it, so that it fails on code, not on a
// slower host; a scaling gate compares a workload at GOMAXPROCS 1 and c
// within one process.
//
// The task is a copy of the one bench/probe.go times, which belongs to
// the repository benchmark so that no change here can move it.
package perfref

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

type record struct {
	ID     string    `json:"id"`
	Fed    int       `json:"fed"`
	Lambda []float64 `json:"lambda"`
}

// refRound runs one round of the reference task: 64 JSON encode-decode
// round trips of a 48-slot record.
func refRound(rec *record) {
	for range 64 {
		rec.Fed++
		data, err := json.Marshal(rec)
		if err != nil {
			panic(err) // the record always encodes
		}
		var back record
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
	}
}

// Gate times op, one op of b, against the reference task in 15
// alternated pairs, each a round of the task and as many ops as last
// at least 1 ms, so that a host's changes of speed reach both sides of
// a pair alike. It reports the median pair's time per op over the
// round's as the metric ref_ratio, and fails b when that exceeds twice
// recorded, the ratio recorded when the gate was set. Call it after the
// timed loop; it gates every run lasting at least 100 ms, which leaves
// out the harness's short runs sizing b.N but not a single op slow
// enough to end the sizing.
func Gate(b *testing.B, recorded float64, op func()) {
	if b.Elapsed() < 100*time.Millisecond {
		return
	}
	b.StopTimer()
	rec := record{ID: "s001", Lambda: make([]float64, 48)}
	for i := range rec.Lambda {
		rec.Lambda[i] = 7.5 + 0.37*float64(i)
	}
	n := reps(op, time.Millisecond)
	ratios := make([]float64, 15)
	for i := range ratios {
		ref := timed(1, func() { refRound(&rec) })
		ratios[i] = timed(n, op) / float64(n) / ref
	}
	ratio := median(ratios)
	b.ReportMetric(ratio, "ref_ratio")
	if ratio > 2*recorded {
		b.Fatalf("ref_ratio %.4g exceeds 2x the recorded %.4g", ratio, recorded)
	}
}

// Scale times op at GOMAXPROCS 1, 2, 4 and 8 in turn, seven times
// over, each time as many ops as last at least 100 ms at 1. For each
// c > 1 it reports the median of the seven speedups t(1)/t(c) and fails
// b when a c the host has (up to 4) falls short of mineff·c, or when on
// a c the host lacks the median t(c)/t(1) exceeds maxover:
// oversubscribed, a workload cannot speed up, but a serialised hot path
// slows down. A zero bound is not checked.
func Scale(b *testing.B, mineff, maxover float64, op func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := reps(op, 100*time.Millisecond)
	cpus := []int{1, 2, 4, 8}
	speedups := make([][]float64, len(cpus))
	for range 7 {
		var t1 float64
		for i, c := range cpus {
			runtime.GOMAXPROCS(c)
			t := timed(n, op)
			if c == 1 {
				t1 = t
			}
			speedups[i] = append(speedups[i], t1/t)
		}
	}
	for i, c := range cpus[1:] {
		s := median(speedups[i+1])
		b.ReportMetric(s, fmt.Sprintf("speedup_cpu%d", c))
		switch {
		case c <= runtime.NumCPU() && c <= 4 && mineff > 0 && s < mineff*float64(c):
			b.Errorf("speedup at %d cpus %.2fx, below the floor %.2fx", c, s, mineff*float64(c))
		case c > runtime.NumCPU() && maxover > 0 && 1/s > maxover:
			b.Errorf("%d cpus oversubscribed on %d take %.2fx the 1-cpu time, above the ceiling %.2fx",
				c, runtime.NumCPU(), 1/s, maxover)
		}
	}
}

// reps is the smallest power of two of ops that last at least d.
func reps(op func(), d time.Duration) int {
	n := 1
	for timed(n, op) < float64(d) {
		n *= 2
	}
	return n
}

// timed returns how long n calls of f take, in ns.
func timed(n int, f func()) float64 {
	start := time.Now()
	for range n {
		f()
	}
	return float64(time.Since(start))
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
