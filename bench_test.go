package rightsizing

// The benchmark harness regenerates every paper artefact (DESIGN.md's
// experiment index): one benchmark per figure (F1-F5) and per theorem
// experiment (E1-E8). Run a single artefact with e.g.
//
//	go test -bench BenchmarkE5 -benchtime 1x
//
// and the whole study with `go test -bench . -benchmem`. Each iteration
// executes the full experiment, including its bound assertions; a violated
// bound fails the benchmark.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/perfref"
)

func requirePass(b *testing.B, rep experiments.Report) {
	b.Helper()
	if !rep.Pass {
		b.Fatalf("experiment %s violated its proven bound:\n%s", rep.ID, rep.Table)
	}
}

// ---------- figures ----------

func BenchmarkF1FigureAlgorithmA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.F1())
	}
}

func BenchmarkF2FigureBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.F2())
	}
}

func BenchmarkF3FigureAlgorithmB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.F3())
	}
}

func BenchmarkF4FigureGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.F4())
	}
}

func BenchmarkF5FigureApproxConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.F5())
	}
}

// ---------- theorems ----------

func BenchmarkE1CompetitiveA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E1CompetitiveA(1, 12))
	}
}

func BenchmarkE2CompetitiveAConstant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E2ConstantCosts(2, 12))
	}
}

func BenchmarkE3CompetitiveB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E3CompetitiveB(3, 12))
	}
}

func BenchmarkE4CompetitiveC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E4CompetitiveC(4, 8))
	}
}

func BenchmarkE5ApproxRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E5ApproxRatio(5, 10))
	}
}

func BenchmarkE5ApproxRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E5ApproxRuntime())
	}
}

func BenchmarkE6TimeVarying(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E6TimeVarying(6, 6))
	}
}

func BenchmarkE7AdversarialRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E7Adversarial())
	}
}

func BenchmarkE8CostSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E8CostSavings(8))
	}
}

func BenchmarkE9IntegralityGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E9IntegralityGap(9, 5))
	}
}

func BenchmarkE10ScaledTracker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E10ScaledTracker(10, 4))
	}
}

// ---------- end-to-end micro-benchmarks on the public API ----------

func benchmarkInstance(T int) *Instance {
	return &Instance{
		Types: []ServerType{
			{Name: "cpu", Count: 24, SwitchCost: 2, MaxLoad: 1,
				Cost: Static{F: Power{Idle: 1, Coef: 0.6, Exp: 2}}},
			{Name: "gpu", Count: 6, SwitchCost: 15, MaxLoad: 4,
				Cost: Static{F: Affine{Idle: 4, Rate: 0.3}}},
		},
		Lambda: Diurnal(T, 3, 40, 24, 0),
	}
}

func BenchmarkSolveOptimalPublic(b *testing.B) {
	ins := benchmarkInstance(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveOptimal(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveApproxPublic(b *testing.B) {
	ins := benchmarkInstance(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveApprox(ins, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmAPublic(b *testing.B) {
	ins := benchmarkInstance(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg, err := NewAlgorithmA(ins.Types)
		if err != nil {
			b.Fatal(err)
		}
		Run(alg, ins)
	}
}

func BenchmarkAlgorithmBPublic(b *testing.B) {
	ins := benchmarkInstance(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg, err := NewAlgorithmB(ins.Types)
		if err != nil {
			b.Fatal(err)
		}
		Run(alg, ins)
	}
}

func BenchmarkAlgorithmCPublic(b *testing.B) {
	ins := benchmarkInstance(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg, err := NewAlgorithmC(ins.Types, 1)
		if err != nil {
			b.Fatal(err)
		}
		Run(alg, ins)
	}
}

func BenchmarkE11RoundingBlowup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E11RoundingBlowup(11, 8))
	}
}

func BenchmarkE12ProofTerms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requirePass(b, experiments.E12ProofTerms(12, 12))
	}
}

// ---------- scenario engine ----------

// Wall-time gates (see perfref.Gate): ns/op over the reference task's,
// recorded on a 2-vCPU Xeon @ 2.1 GHz, Go 1.24, 2026-10-17.
const (
	suiteSerialRatio   = 178.5
	streamSessionRatio = 0.1776
)

// runSuite runs the whole stock registry through the engine with the
// given worker count; results are bit-identical either way.
func runSuite(tb testing.TB, scs []Scenario, workers int) {
	res, err := RunSuite(scs, SuiteOptions{Workers: workers, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Results) != len(scs) {
		tb.Fatalf("got %d results for %d scenarios", len(res.Results), len(scs))
	}
}

func BenchmarkSuiteSerial(b *testing.B) {
	scs := Scenarios()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSuite(b, scs, 1)
	}
	perfref.Gate(b, suiteSerialRatio, func() { runSuite(b, scs, 1) })
}

// A serial suite run allocates no more objects than when the bound was
// set: 33 710, or 33 711 in about one process in twenty.
func TestSuiteSerialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	scs := Scenarios()
	if a := testing.AllocsPerRun(2, func() { runSuite(t, scs, 1) }); a > 33711 {
		t.Fatalf("suite allocates %v per run, want <= 33711", a)
	}
}

// BenchmarkScaling gates how the parallel suite scales with GOMAXPROCS
// (see perfref.Scale). Chunked distribution over 8 uneven scenarios
// bounds the speedup by the heaviest chunk, hence the low floor.
func BenchmarkScaling(b *testing.B) {
	b.Run("SuiteParallel", func(b *testing.B) {
		scs := Scenarios()
		perfref.Scale(b, 0.35, 1.5, func() { runSuite(b, scs, AutoWorkers) })
	})
}

// ---------- live advisory sessions ----------

// streamSession drives the full session loop — validation, algorithm
// step, cost accounting and (optionally) the prefix-optimum telemetry
// tracker — over a two-day trace, the per-slot hot path of
// `rightsize -stream`.
func streamSession(tb testing.TB, ins *Instance, opts SessionOptions) {
	sess, err := OpenSession("alg-b", ins.Types, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, l := range ins.Lambda {
		if _, err := sess.FeedDemand(l); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := sess.Close(); err != nil {
		tb.Fatal(err)
	}
	if sess.Decided() != ins.T() {
		tb.Fatalf("decided %d slots, want %d", sess.Decided(), ins.T())
	}
}

func BenchmarkStreamSession(b *testing.B) {
	ins := benchmarkInstance(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamSession(b, ins, SessionOptions{})
	}
	perfref.Gate(b, streamSessionRatio, func() { streamSession(b, ins, SessionOptions{}) })
}

func BenchmarkStreamSessionNoTelemetry(b *testing.B) {
	ins := benchmarkInstance(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamSession(b, ins, SessionOptions{DisableOpt: true})
	}
}

// A 48-slot session allocates no more objects than when the bound was
// set.
func TestStreamSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	ins := benchmarkInstance(48)
	if a := testing.AllocsPerRun(20, func() { streamSession(t, ins, SessionOptions{}) }); a > 172 {
		t.Fatalf("session allocates %v per run, want <= 172", a)
	}
}

// BenchmarkScaleApproxT720 exercises production scale: a month of hourly
// slots over a 2000-server fleet, solvable only because the reduced
// lattice keeps the per-slot work logarithmic (Theorem 21).
func BenchmarkScaleApproxT720(b *testing.B) {
	ins := &Instance{
		Types: []ServerType{
			{Name: "cpu", Count: 1500, SwitchCost: 2, MaxLoad: 1,
				Cost: Static{F: Affine{Idle: 1, Rate: 1}}},
			{Name: "gpu", Count: 500, SwitchCost: 12, MaxLoad: 4,
				Cost: Static{F: Affine{Idle: 3, Rate: 0.4}}},
		},
		Lambda: Diurnal(720, 100, 3000, 24, 0),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := SolveApprox(ins, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := ins.Feasible(res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}
