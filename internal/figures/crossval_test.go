package figures

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Differential tests: the production state machines (TypeA and TypeB,
// both queues of pending power-ups) against independent reference
// simulations built directly from the paper's formulas (W_t sets, block
// windows). Two implementations of the same math must agree on
// arbitrary inputs.

// referenceB simulates Algorithm B's single-type dynamics literally from
// Algorithm 2: w_t bookkeeping plus the W_t sets computed by formula.
func referenceB(beta float64, ls []float64, xhat []int) []int {
	T := len(ls)
	w := make([]int, T+1)
	wsets := WSetsB(beta, ls)
	x := 0
	out := make([]int, T)
	for t := 1; t <= T; t++ {
		for _, u := range wsets[t-1] {
			x -= w[u]
			w[u] = 0
		}
		if x <= xhat[t-1] {
			w[t] = xhat[t-1] - x
			x = xhat[t-1]
		}
		out[t-1] = x
	}
	return out
}

// referenceA simulates Algorithm A per its block semantics: x_t is the
// total of power-ups within the live window (t−t̄, t].
func referenceA(tbar int, xhat []int) []int {
	T := len(xhat)
	w := make([]int, T+1)
	out := make([]int, T)
	liveAt := func(t int) int {
		sum := 0
		lo := t - tbar + 1
		if lo < 1 {
			lo = 1
		}
		for u := lo; u <= t; u++ {
			sum += w[u]
		}
		return sum
	}
	for t := 1; t <= T; t++ {
		x := liveAt(t) // power-ups from t−t̄+1..t−1 still alive; w[t]=0 yet
		if x <= xhat[t-1] {
			w[t] = xhat[t-1] - x
			x = xhat[t-1]
		}
		out[t-1] = x
	}
	return out
}

func TestTypeBMatchesFormulaReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		T := 3 + rng.Intn(30)
		beta := rng.Float64() * 10
		ls := make([]float64, T)
		xhat := make([]int, T)
		for i := range ls {
			ls[i] = rng.Float64() * 4
			xhat[i] = rng.Intn(5)
		}
		s := core.NewTypeB(beta)
		want := referenceB(beta, ls, xhat)
		for i := range ls {
			if got := s.Step(ls[i], xhat[i]); got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTypeAMatchesWindowReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		T := 3 + rng.Intn(30)
		tbar := 1 + rng.Intn(8)
		xhat := make([]int, T)
		for i := range xhat {
			xhat[i] = rng.Intn(5)
		}
		s := core.NewTypeA(tbar)
		want := referenceA(tbar, xhat)
		for i := range xhat {
			if got := s.Step(xhat[i]); got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TBarsB and WSetsB are two views of the same timeout structure: u ∈ W_t
// exactly when t = u + t̄_{u} + 1 (for determined t̄), and undetermined
// t̄ means u appears in no W_t.
func TestTBarsConsistentWithWSets(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		T := 3 + rng.Intn(25)
		beta := rng.Float64() * 8
		ls := make([]float64, T)
		for i := range ls {
			ls[i] = rng.Float64() * 3
		}
		tbars := TBarsB(beta, ls)
		wsets := WSetsB(beta, ls)
		// Build the inverse map: for each u, the t with u ∈ W_t.
		shutdown := map[int]int{}
		for tt := 1; tt <= T; tt++ {
			for _, u := range wsets[tt-1] {
				if _, dup := shutdown[u]; dup {
					return false // W sets must partition
				}
				shutdown[u] = tt
			}
		}
		for u := 1; u <= T; u++ {
			tb := tbars[u-1]
			st, ok := shutdown[u]
			if tb < 0 {
				if ok {
					return false // undetermined yet scheduled for shutdown
				}
				continue
			}
			if !ok || st != u+tb+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
