package rightsizing

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fractional"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/trace"
)

// This file exposes the library extensions that go beyond the paper's
// verbatim algorithms: scalable online variants, the fractional
// relaxation, randomized baselines, trace I/O and parallel solving.

// AutoWorkers selects one worker per available CPU in SolveOptions,
// AlgorithmOptions and SuiteOptions (the solver and the scenario engine
// share the sentinel value).
const AutoWorkers = solver.AutoWorkers

// AlgorithmOptions tunes the online algorithms' internal prefix-optimum
// tracker; the zero value reproduces the paper exactly. TrackerGamma > 1
// switches to the γ-reduced lattice (scalable heuristic — the competitive
// proof assumes the exact lattice; see experiment E10).
type AlgorithmOptions = core.Options

// NewAlgorithmAWithOptions is NewAlgorithmA with tracker tuning.
func NewAlgorithmAWithOptions(types []ServerType, opts AlgorithmOptions) (*AlgorithmA, error) {
	return core.NewAlgorithmAWithOptions(types, opts)
}

// NewAlgorithmBWithOptions is NewAlgorithmB with tracker tuning.
func NewAlgorithmBWithOptions(types []ServerType, opts AlgorithmOptions) (*AlgorithmB, error) {
	return core.NewAlgorithmBWithOptions(types, opts)
}

// NewRandomizedTimeout is SkiRental's randomized variant: each surplus
// episode draws its idle-cost budget from the optimal e/(e−1)
// distribution. Seeded for reproducibility.
func NewRandomizedTimeout(types []ServerType, seed int64) (Online, error) {
	return baseline.NewRandomizedTimeout(types, seed)
}

// FractionalResult is the outcome of solving the fractional relaxation on
// a 1/K grid.
type FractionalResult = fractional.Result

// SolveFractional approximates the fractional relaxation (real-valued
// server counts) by K-refinement: counts become multiples of 1/K. eps > 0
// solves the refined instance on the γ-reduced lattice (polynomial);
// eps <= 0 solves it exactly.
func SolveFractional(ins *Instance, K int, eps float64) (*FractionalResult, error) {
	return fractional.Solve(ins, K, eps)
}

// IntegralityGap measures discreteOPT / fractionalOPT(K grid) — the price
// of integrality the paper's open rounding problem would have to pay.
func IntegralityGap(ins *Instance, K int, eps float64) (gap, discrete, frac float64, err error) {
	return fractional.IntegralityGap(ins, K, eps)
}

// TraceFromCSV reads one numeric column (0-based) of CSV demand data.
func TraceFromCSV(r io.Reader, col int) ([]float64, error) { return trace.FromCSV(r, col) }

// TraceToCSV writes a trace as single-column CSV.
func TraceToCSV(w io.Writer, xs []float64) error { return trace.ToCSV(w, xs) }

// TraceAgg selects the Resample aggregation.
type TraceAgg = trace.Agg

// Aggregations for TraceResample.
const (
	AggMax  = trace.AggMax
	AggMean = trace.AggMean
)

// TraceResample coarsens a trace: every factor samples become one slot.
func TraceResample(xs []float64, factor int, agg TraceAgg) ([]float64, error) {
	return trace.Resample(xs, factor, agg)
}

// TraceNormalize rescales a trace to the given peak.
func TraceNormalize(xs []float64, peak float64) ([]float64, error) {
	return trace.Normalize(xs, peak)
}

// TraceSmooth applies a centred moving average (odd window).
func TraceSmooth(xs []float64, window int) ([]float64, error) {
	return trace.Smooth(xs, window)
}

// FoldDownCosts converts an instance with per-type power-down costs into
// the paper's up-only model (β'_j = β_j + down_j). Every schedule's cost
// under the result equals its cost in the extended model, so all
// algorithms and guarantees apply verbatim (paper, remark after Eq. 2).
func FoldDownCosts(ins *Instance, down []float64) (*Instance, error) {
	return model.FoldDownCosts(ins, down)
}
