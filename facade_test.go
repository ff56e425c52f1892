package rightsizing

import (
	"math/rand"
	"strings"
	"testing"
)

// The facade wrappers must all be wired to the right internals; this test
// sweeps every re-export the other tests don't reach.
func TestFacadeWrappers(t *testing.T) {
	ins := twoType()

	// Solve with explicit options.
	res, err := Solve(ins, SolveOptions{Gamma: 1.5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Feasible(res.Schedule); err != nil {
		t.Fatal(err)
	}

	// Algorithm B with options; randomized baseline.
	b, err := NewAlgorithmBWithOptions(ins.Types, AlgorithmOptions{TrackerGamma: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Feasible(Run(b, ins)); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRandomizedTimeout(ins.Types, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Feasible(Run(rt, ins)); err != nil {
		t.Fatal(err)
	}

	// Workload generators.
	rng := rand.New(rand.NewSource(1))
	if len(DiurnalNoisy(rng, 10, 1, 5, 5, 0.2)) != 10 {
		t.Error("DiurnalNoisy")
	}
	if len(Bursty(rng, 10, 1, 5, 0.5)) != 10 {
		t.Error("Bursty")
	}
	if len(RandomWalk(rng, 10, 3, 1, 1, 5)) != 10 {
		t.Error("RandomWalk")
	}

	// Measurement.
	m := Measure(ins, res.Schedule, "x", 1)
	if m.Total <= 0 {
		t.Error("Measure")
	}

	// Trace tooling.
	tr, err := TraceFromCSV(strings.NewReader("v\n1\n4\n2\n6\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := TraceToCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	rs, err := TraceResample(tr, 2, AggMax)
	if err != nil || rs[0] != 4 || rs[1] != 6 {
		t.Fatalf("TraceResample: %v %v", rs, err)
	}
	rsMean, err := TraceResample(tr, 2, AggMean)
	if err != nil || rsMean[0] != 2.5 {
		t.Fatalf("TraceResample mean: %v %v", rsMean, err)
	}
	nm, err := TraceNormalize(tr, 12)
	if err != nil || nm[3] != 12 {
		t.Fatalf("TraceNormalize: %v %v", nm, err)
	}
	sm, err := TraceSmooth(tr, 3)
	if err != nil || len(sm) != 4 {
		t.Fatalf("TraceSmooth: %v %v", sm, err)
	}

	// Fractional relaxation and folding.
	gap, discrete, frac, err := IntegralityGap(ins, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gap < 1-1e-6 || discrete < frac*(1-1e-6) {
		t.Errorf("gap %g discrete %g frac %g", gap, discrete, frac)
	}
	folded, err := FoldDownCosts(ins, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if folded.Types[0].SwitchCost != ins.Types[0].SwitchCost+1 {
		t.Error("FoldDownCosts")
	}
	if AutoWorkers >= 0 {
		t.Error("AutoWorkers sentinel should be negative")
	}
}
