package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/solver"
)

// ---------- E12: proof-term decomposition (Theorem 8's anatomy) ----------

// E12ProofTerms measures every intermediate inequality in Theorem 8's
// proof on random instances: Lemma 5 (the load-dependent cost of X^A is at
// most OPT), Lemma 7 (per-type block costs at most 2·OPT), and the final
// assembly C(X^A) <= ΣH + L <= (2d+1)·OPT. The table reports how much
// slack each proof step leaves in practice — where the analysis is tight
// and where it is generous.
func E12ProofTerms(seed int64, instances int) Report {
	rep := Report{
		ID:    "E12",
		Title: "Anatomy of Theorem 8: measured slack in every proof step",
		Paper: "Lemma 5: Σ L(X^A) <= OPT; Lemma 7: Σ_i H_{j,i} <= 2·OPT per type; Theorem 8: C(X^A) <= ΣH + L <= (2d+1)·OPT",
		Pass:  true,
	}
	rep.Table = engine.NewTable("quantity", "mean /OPT", "max /OPT", "proof bound /OPT", "holds")
	rng := rand.New(rand.NewSource(seed))

	var sumL, maxL float64          // Lemma 5 term
	var sumHmax, maxHmax float64    // Lemma 7 worst type
	var sumTotal, maxTotal float64  // actual C(X^A)
	var sumAssembly, maxAsm float64 // ΣH + L
	d := 2
	for i := 0; i < instances; i++ {
		ins := randomStatic(rng, d, 3, 10)
		a, err := core.NewAlgorithmA(ins.Types)
		if err != nil {
			panic(err)
		}
		sched := core.Run(a, ins)
		opt, err := solver.OptimalCost(ins)
		if err != nil {
			panic(err)
		}
		p, err := analysis.Decompose(ins, sched)
		if err != nil {
			panic(err)
		}
		tbars := make([]int, ins.D())
		for j := range tbars {
			tbars[j] = a.Timeout(j)
		}
		hs, err := analysis.BlockCostsA(ins, sched, tbars)
		if err != nil {
			panic(err)
		}
		hMax, hSum := 0.0, 0.0
		for _, h := range hs {
			hSum += h
			if h > hMax {
				hMax = h
			}
		}

		l := p.LoadDependent / opt
		hm := hMax / opt
		tot := p.Total() / opt
		asm := (hSum + p.LoadDependent) / opt
		rep.Pass = rep.Pass && l <= 1+tol && hm <= 2+tol &&
			tot <= asm+tol && asm <= float64(2*ins.D()+1)+tol

		sumL += l
		sumHmax += hm
		sumTotal += tot
		sumAssembly += asm
		if l > maxL {
			maxL = l
		}
		if hm > maxHmax {
			maxHmax = hm
		}
		if tot > maxTotal {
			maxTotal = tot
		}
		if asm > maxAsm {
			maxAsm = asm
		}
	}
	n := float64(instances)
	rep.Table.Add("L(X^A) — Lemma 5", fmt.Sprintf("%.3f", sumL/n),
		fmt.Sprintf("%.3f", maxL), "1", fmt.Sprintf("%v", maxL <= 1+tol))
	rep.Table.Add("max_j ΣH_{j,i} — Lemma 7", fmt.Sprintf("%.3f", sumHmax/n),
		fmt.Sprintf("%.3f", maxHmax), "2", fmt.Sprintf("%v", maxHmax <= 2+tol))
	rep.Table.Add("C(X^A) actual", fmt.Sprintf("%.3f", sumTotal/n),
		fmt.Sprintf("%.3f", maxTotal), fmt.Sprintf("%d", 2*d+1),
		fmt.Sprintf("%v", maxTotal <= float64(2*d+1)+tol))
	rep.Table.Add("ΣH + L assembly", fmt.Sprintf("%.3f", sumAssembly/n),
		fmt.Sprintf("%.3f", maxAsm), fmt.Sprintf("%d", 2*d+1),
		fmt.Sprintf("%v", maxAsm <= float64(2*d+1)+tol))

	rep.Notes = append(rep.Notes,
		"The slack lives almost entirely in Lemma 7's block bound (H charges every block a full β + t̄·f(0) even when blocks abut and pay no switching) — the actual cost sits near 1.1·OPT while the assembly term is far larger. Lemma 4's per-type comparison holds under a common load split (the prefix optimum's dispatch); the naive per-config-optimal-split reading is false — see internal/analysis.")
	return rep
}
