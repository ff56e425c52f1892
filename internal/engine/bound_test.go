package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/stream"
)

// The paper's competitive bounds hold on every prefix of every stock
// scenario, as a live session reports them: an online algorithm decides
// slots 1..t exactly as it would on the instance I_t, so after each
// decided slot its running cost is within the bound of the prefix
// optimum. Algorithm A carries 2d+1 (Theorem 8) on time-independent
// costs, Algorithm B 2d+1+c(I_t) (Theorem 13) everywhere.
func TestCompetitiveBoundOnEveryPrefix(t *testing.T) {
	const seed = 3
	for _, sc := range Scenarios() {
		ins := sc.Instance(seed)
		for _, alg := range []string{"alg-a", "alg-b"} {
			if alg == "alg-a" && !ins.TimeIndependent() {
				continue
			}
			t.Run(sc.Name+"/"+alg, func(t *testing.T) {
				sess, err := OpenSession(alg, ins.Types, stream.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var adv stream.Advisory
				for ts := 1; ts <= ins.T(); ts++ {
					decided, err := sess.Push(feedInput(ins, ts), &adv)
					if err != nil {
						t.Fatalf("slot %d: %v", ts, err)
					}
					if !decided || adv.Slot != ts {
						t.Fatalf("slot %d undecided by an online algorithm", ts)
					}
					bound := core.RatioBoundA(ins)
					if alg == "alg-b" {
						bound = core.RatioBoundB(ins.Prefix(ts))
					}
					if !numeric.LessEqual(adv.CumCost, bound*adv.Opt, 1e-9) {
						t.Fatalf("slot %d: cost %g exceeds %g·Opt = %g", ts, adv.CumCost, bound, bound*adv.Opt)
					}
				}
			})
		}
	}
}
