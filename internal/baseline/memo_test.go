package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/solver"
)

// SkiRental reads g_t through the layer memo: after the optimum's solve
// has put every layer of an instance in the memo, a SkiRental run over
// the instance solves no layer — one memo hit a slot, no miss. The memo
// tally is process-wide, so this test does not run in parallel.
func TestSkiRentalReadsSolvedLayersFromMemo(t *testing.T) {
	for _, name := range []string{"quickstart", "heterogeneous", "price-modulated", "maintenance"} {
		sc, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("no scenario %q", name)
		}
		ins := sc.Instance(1)
		if _, err := solver.SolveOptimal(ins); err != nil {
			t.Fatal(err)
		}
		s, err := baseline.NewSkiRental(ins.Types)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := solver.MemoStats()
		core.Run(s, ins)
		if h, m := solver.MemoStats(); h-hits != uint64(ins.T()) || m != misses {
			t.Errorf("%s: SkiRental over %d slots made %d memo hits and %d misses, want %d and 0",
				name, ins.T(), h-hits, m-misses, ins.T())
		}
	}
}
