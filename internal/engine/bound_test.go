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
// costs, Algorithm B 2d+1+c(I_t) (Theorem 13) everywhere, and
// Algorithm C 2d+1+ε (Theorem 15) everywhere; C is checked at ε = 1 and
// ε = 0.25, its sub-slot costs read from B's pruned layers.
func TestCompetitiveBoundOnEveryPrefix(t *testing.T) {
	const seed = 3
	for _, sc := range Scenarios() {
		ins := sc.Instance(seed)
		for _, alg := range []string{"alg-a", "alg-b", "alg-c/eps=1", "alg-c/eps=0.25"} {
			if alg == "alg-a" && !ins.TimeIndependent() {
				continue
			}
			t.Run(sc.Name+"/"+alg, func(t *testing.T) {
				var sess *stream.Session
				var err error
				bound := func(ts int) float64 { return core.RatioBoundA(ins) }
				switch alg {
				case "alg-a", "alg-b":
					sess, err = OpenSession(alg, ins.Types, stream.Options{})
					if alg == "alg-b" {
						bound = func(ts int) float64 { return core.RatioBoundB(ins.Prefix(ts)) }
					}
				default:
					eps := 1.0
					if alg == "alg-c/eps=0.25" {
						eps = 0.25
					}
					var c *core.AlgorithmC
					if c, err = core.NewAlgorithmC(ins.Types, eps); err == nil {
						sess, err = stream.New(c, ins.Types, stream.Options{})
					}
					bound = func(int) float64 { return c.RatioBound() }
				}
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
					if b := bound(ts); !numeric.LessEqual(adv.CumCost, b*adv.Opt, 1e-9) {
						t.Fatalf("slot %d: cost %g exceeds %g·Opt = %g", ts, adv.CumCost, b, b*adv.Opt)
					}
				}
			})
		}
	}
}
