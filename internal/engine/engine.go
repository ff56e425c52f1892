// Package engine is the unified scenario engine: one run→measure→report
// pipeline shared by the offline solvers, the online algorithms, the
// baselines, the experiment study and every command-line tool.
//
// The pieces compose bottom-up:
//
//   - AlgSpec names an algorithm and knows how to produce its behaviour
//     for an instance: a push-based streaming constructor (New) for the
//     online algorithms and baselines, or a hindsight schedule producer
//     (Offline) for the offline policies, plus an applicability gate
//     (Algorithm A needs time-independent costs, LCP needs d = 1, ...).
//   - The algorithm registry (RegisterAlgorithm / Algorithms /
//     LookupAlgorithm) mirrors the scenario registry, so scenarios, the
//     CLI, live sessions and the facade all resolve algorithms by name.
//   - Measure turns a schedule into Metrics: cost decomposition, switching
//     activity and the competitive ratio against the exact optimum.
//   - Scenario bundles a named deterministic instance generator with the
//     algorithms to run on it.
//   - RunSuite fans scenarios out over a bounded worker pool with the
//     determinism discipline of solver/parallel.go: static partition,
//     per-unit model.Evaluators, bit-identical results for any worker
//     count. Each instance's optimum is solved exactly once per run.
//   - Sinks render one result stream as text tables, JSON, CSV or
//     markdown for cmd/rightsize, cmd/experiments, benchmarks and
//     dashboards alike.
package engine

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/solver"
)

// Metrics summarises one algorithm's behaviour on one instance. The JSON
// field names are part of the suite-result format consumed by the JSON
// sink and must stay stable.
type Metrics struct {
	Name       string  `json:"name"`
	Operating  float64 `json:"operating"` // Σ_t g_t(x_t)
	Switching  float64 `json:"switching"` // Σ_t Σ_j β_j (Δ_j)^+
	Total      float64 `json:"total"`     // Operating + Switching
	PowerUps   int     `json:"power_ups"` // individual server power-up operations
	PeakActive int     `json:"peak"`      // max over slots of Σ_j x_{t,j}
	MeanActive float64 `json:"mean"`      // mean over slots of Σ_j x_{t,j}
	Ratio      float64 `json:"ratio"`     // Total / OPT; 0 when OPT is unknown
}

// Measure evaluates a schedule. opt > 0 enables the Ratio field. It
// allocates a fresh evaluator; hot paths with an evaluator at hand should
// call MeasureWith.
func Measure(ins *model.Instance, sched model.Schedule, name string, opt float64) Metrics {
	return MeasureWith(model.NewEvaluator(ins), sched, name, opt)
}

// MeasureWith is Measure with a caller-provided evaluator (evaluators
// carry scratch buffers and are not safe for concurrent use; the suite
// runner keeps one per work unit).
func MeasureWith(ev *model.Evaluator, sched model.Schedule, name string, opt float64) Metrics {
	ins := ev.Instance()
	br := ev.Cost(sched)
	m := Metrics{
		Name:      name,
		Operating: br.Operating,
		Switching: br.Switching,
		Total:     br.Total(),
	}
	prev := make(model.Config, ins.D())
	sumActive := 0
	for _, x := range sched {
		total := x.Total()
		sumActive += total
		if total > m.PeakActive {
			m.PeakActive = total
		}
		for j := range x {
			if up := x[j] - prev[j]; up > 0 {
				m.PowerUps += up
			}
		}
		prev = x
	}
	if len(sched) > 0 {
		m.MeanActive = float64(sumActive) / float64(len(sched))
	}
	if opt > 0 {
		m.Ratio = m.Total / opt
	}
	return m
}

// RatioAgainstOpt runs an online algorithm over the instance and returns
// its cost divided by the exact optimal cost. The optimum is computed with
// the memory-light solver since no optimal schedule is needed.
func RatioAgainstOpt(ins *model.Instance, alg core.Online) (float64, error) {
	sched := core.Run(alg, ins)
	if err := ins.Feasible(sched); err != nil {
		return 0, fmt.Errorf("engine: %s produced an infeasible schedule: %v", alg.Name(), err)
	}
	cost := model.NewEvaluator(ins).Cost(sched).Total()
	opt, err := solver.OptimalCost(ins)
	if err != nil {
		return 0, err
	}
	return cost / opt, nil
}

// AlgSpec describes one algorithm: registry identity, documentation, a
// streaming constructor and/or an offline schedule producer, and an
// optional applicability gate.
type AlgSpec struct {
	// Key is the registry key (kebab-case by convention, e.g. "alg-a").
	// Lookup is normalisation-insensitive, so "algA" finds "alg-a".
	Key string
	// Name identifies the algorithm in results; it must be unique within
	// a scenario and stays stable across releases (the suite-result format
	// depends on it).
	Name string
	// Doc is a one-line description for listings and README tables.
	Doc string
	// Bound is the proven competitive ratio, informational ("2d+1",
	// "2d+1+c(I)", "—" for heuristics).
	Bound string
	// Applies is the human-readable applicability gate for tables ("any
	// instance", "time-independent costs", "d = 1").
	Applies string
	// New constructs the push-based online algorithm for a fleet
	// template; nil for offline-only policies.
	New func(types []model.ServerType) (core.Online, error)
	// Offline, when non-nil, computes a hindsight schedule directly and
	// takes precedence over New in batch runs.
	Offline func(ins *model.Instance) (model.Schedule, error)
	// Skip, when non-nil, reports why the spec does not apply to the
	// instance ("" means it applies). Skipped algorithms are recorded in
	// the result rather than failing the scenario.
	Skip func(ins *model.Instance) string
}

// Streamable reports whether the algorithm can serve a live session.
func (s AlgSpec) Streamable() bool { return s.New != nil }

// Run computes the algorithm's schedule for the instance: offline policies
// solve in hindsight, online algorithms are constructed for the instance's
// fleet and driven through the streaming path (batch replay is a thin
// driver over Step). Step panics from per-slot rejections (e.g. Algorithm
// C's subdivision cap) are converted into ordinary errors, matching the
// construction-time errors the pre-streaming API reported (Evaluate still
// treats any algorithm error as a scenario failure).
func (s AlgSpec) Run(ins *model.Instance) (sched model.Schedule, err error) {
	if s.Offline != nil {
		return s.Offline(ins)
	}
	if s.New == nil {
		return nil, fmt.Errorf("engine: algorithm %q has no constructor", s.Name)
	}
	alg, err := s.New(ins.Types)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			sched, err = nil, fmt.Errorf("engine: %s rejected the instance: %v", s.Name, r)
		}
	}()
	return core.Run(alg, ins), nil
}

// OnlineSpec wraps a push-based constructor as an AlgSpec.
func OnlineSpec(name string, mk func(types []model.ServerType) (core.Online, error)) AlgSpec {
	return AlgSpec{Name: name, New: mk}
}

// AlgorithmCSpec is the paper's Algorithm C (Section 3.2) with accuracy ε.
func AlgorithmCSpec(eps float64) AlgSpec {
	s := AlgSpec{
		Key:     "alg-c",
		Name:    fmt.Sprintf("AlgorithmC(ε=%g)", eps),
		Doc:     "online, sub-slot subdivision for time-dependent costs (Section 3.2)",
		Bound:   "2d+1+ε",
		Applies: "β_j > 0 for every type",
		New: func(types []model.ServerType) (core.Online, error) {
			return core.NewAlgorithmC(types, eps)
		},
	}
	s.Skip = func(ins *model.Instance) string {
		if eps <= 0 {
			return "requires ε > 0"
		}
		for _, ty := range ins.Types {
			if ty.SwitchCost <= 0 {
				return "requires β_j > 0 for every type"
			}
		}
		return ""
	}
	return s
}

// ApproxSpec is the offline (1+ε)-approximation (Section 4.2) run as a
// hindsight policy.
func ApproxSpec(eps float64) AlgSpec {
	return AlgSpec{
		Key:     "approx",
		Name:    fmt.Sprintf("Approx(ε=%g)", eps),
		Doc:     "offline (1+ε)-approximation on the γ-reduced lattice (Section 4.2)",
		Bound:   "1+ε (hindsight)",
		Applies: "any instance",
		Offline: func(ins *model.Instance) (model.Schedule, error) {
			res, err := solver.SolveApprox(ins, eps)
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		},
	}
}

// LookaheadSpec is receding-horizon control with lookahead window w,
// streamed through the buffering Lookahead wrapper (decisions lag inputs
// by w−1 slots).
func LookaheadSpec(w int) AlgSpec {
	return AlgSpec{
		Key:     "receding-horizon",
		Name:    fmt.Sprintf("RecedingHorizon(w=%d)", w),
		Doc:     fmt.Sprintf("semi-online model-predictive control, %d-slot lookahead buffer", w),
		Bound:   "—",
		Applies: "any instance (decisions lag w−1 slots)",
		New: func(types []model.ServerType) (core.Online, error) {
			return baseline.NewLookahead(types, w)
		},
	}
}

// stock registry entries.
func init() {
	mustRegisterAlgorithm(AlgSpec{
		Key:     "alg-a",
		Name:    "AlgorithmA",
		Doc:     "online, (2d+1)-competitive for time-independent costs (Section 2)",
		Bound:   "2d+1",
		Applies: "time-independent costs",
		New: func(types []model.ServerType) (core.Online, error) {
			return core.NewAlgorithmA(types)
		},
		Skip: func(ins *model.Instance) string {
			if !ins.TimeIndependent() {
				return "requires time-independent operating costs"
			}
			return ""
		},
	})
	mustRegisterAlgorithm(AlgSpec{
		Key:     "alg-b",
		Name:    "AlgorithmB",
		Doc:     "online, (2d+1+c(I))-competitive for time-dependent costs (Section 3.1)",
		Bound:   "2d+1+c(I)",
		Applies: "any instance",
		New: func(types []model.ServerType) (core.Online, error) {
			return core.NewAlgorithmB(types)
		},
	})
	mustRegisterAlgorithm(AlgorithmCSpec(1))
	mustRegisterAlgorithm(ApproxSpec(0.5))
	mustRegisterAlgorithm(AlgSpec{
		Key:     "all-on",
		Name:    "AllOn",
		Doc:     "static provisioning: every available server stays powered",
		Bound:   "—",
		Applies: "any instance",
		New: func(types []model.ServerType) (core.Online, error) {
			return baseline.NewAllOn(types)
		},
	})
	mustRegisterAlgorithm(AlgSpec{
		Key:     "load-tracking",
		Name:    "LoadTracking",
		Doc:     "memoryless per-slot operating-cost optimiser (ignores switching)",
		Bound:   "—",
		Applies: "any instance",
		New: func(types []model.ServerType) (core.Online, error) {
			return baseline.NewLoadTracking(types)
		},
	})
	mustRegisterAlgorithm(AlgSpec{
		Key:     "ski-rental",
		Name:    "SkiRental",
		Doc:     "follow load up instantly, release surplus after idle cost β_j",
		Bound:   "—",
		Applies: "any instance",
		New: func(types []model.ServerType) (core.Online, error) {
			return baseline.NewSkiRental(types)
		},
	})
	mustRegisterAlgorithm(AlgSpec{
		Key:     "lcp",
		Name:    "LCP",
		Doc:     "lazy capacity provisioning corridor (prior work, homogeneous)",
		Bound:   "3 (homogeneous)",
		Applies: "d = 1",
		New: func(types []model.ServerType) (core.Online, error) {
			return baseline.NewLCP(types)
		},
		Skip: func(ins *model.Instance) string {
			if ins.D() != 1 {
				return "homogeneous (d = 1) instances only"
			}
			return ""
		},
	})
	mustRegisterAlgorithm(LookaheadSpec(3))
}

// DefaultAlgorithms is the standard line-up measured against the optimum:
// the paper's three online algorithms plus every baseline, resolved from
// the registry in the canonical result order. Inapplicable entries
// (Algorithm A on time-dependent costs, LCP on heterogeneous fleets) are
// skipped per instance.
func DefaultAlgorithms() []AlgSpec {
	return algorithmsByKey("alg-a", "alg-b", "alg-c", "all-on", "load-tracking",
		"ski-rental", "lcp", "receding-horizon")
}
