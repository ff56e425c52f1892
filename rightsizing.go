// Package rightsizing implements the algorithms of Albers & Quedenfeld,
// "Algorithms for Right-Sizing Heterogeneous Data Centers" (SPAA 2021):
// online and offline right-sizing of a data center with d heterogeneous
// server types, integral (truly feasible) server counts, convex
// load-dependent operating costs and per-type switching costs.
//
// # Model
//
// An Instance describes the data center: for each type j, the fleet size
// m_j, the power-up cost β_j, the per-server capacity zmax_j, and a
// per-slot convex operating-cost function f_{t,j}(z). At every time slot a
// job volume λ_t arrives and is split across the active servers; the slot
// cost g_t(x) is the cheapest such split (computed internally by exact
// water-filling). Schedules pay β_j per server powered up.
//
// # Offline
//
//   - SolveOptimal: exact optimum via the paper's graph/DP (Section 4.1).
//   - SolveApprox: (1+ε)-approximation on the γ-reduced configuration
//     lattice, γ = 1+ε/2, in time O(T·ε^{-d}·Π_j log m_j) (Section 4.2).
//     Both support time-varying fleet sizes (Section 4.3) via
//     Instance.Counts.
//
// # Online
//
//   - NewAlgorithmA: (2d+1)-competitive for time-independent costs
//     (Section 2); 2d-competitive when costs are also load-independent.
//   - NewAlgorithmB: (2d+1+c(I))-competitive for time-dependent costs
//     (Section 3.1).
//   - NewAlgorithmC: (2d+1+ε)-competitive for time-dependent costs via
//     sub-slot subdivision (Section 3.2).
//
// Baselines (AllOn, LoadTracking, SkiRental, LCP, RecedingHorizon),
// workload generators and a measurement harness support experiments; see
// EXPERIMENTS.md in the repository for the reproduction study.
//
// # Streaming
//
// The online algorithms are push-based: they are constructed from the
// fleet template alone and receive each slot's demand, cost functions and
// fleet counts through Step as they arrive (SlotInput), so the online
// information model holds by construction. Run replays a recorded
// instance through the same path; NewSession/OpenSession manage a live
// advisory loop with running cost/ratio telemetry and checkpoint/resume.
//
// # Quickstart
//
//	ins := &rightsizing.Instance{
//		Types: []rightsizing.ServerType{{
//			Name: "cpu", Count: 16, SwitchCost: 3, MaxLoad: 1,
//			Cost: rightsizing.Static{F: rightsizing.Affine{Idle: 1, Rate: 1}},
//		}},
//		Lambda: rightsizing.Diurnal(48, 1, 14, 24, 0),
//	}
//	opt, err := rightsizing.SolveOptimal(ins)
//	...
//	alg, err := rightsizing.NewAlgorithmA(ins.Types)
//	sched := rightsizing.Run(alg, ins)
package rightsizing

import (
	"io"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ---------- model ----------

// Instance is a problem instance I = (T, d, m, β, F, Λ); see
// internal/model for field semantics. Time slots are 1-based; Lambda[t-1]
// is slot t's job volume, and the optional Counts[t-1][j] makes fleet
// sizes time-dependent (Section 4.3).
type Instance = model.Instance

// ServerType describes one heterogeneous server type.
type ServerType = model.ServerType

// Config is a server configuration: active servers per type.
type Config = model.Config

// Schedule is a sequence of configurations, one per time slot.
type Schedule = model.Schedule

// CostBreakdown splits a schedule's cost into operating and switching
// parts.
type CostBreakdown = model.CostBreakdown

// Evaluator computes operating costs g_t(x) and schedule costs.
type Evaluator = model.Evaluator

// CostProfile yields the operating-cost function of a type per slot.
type CostProfile = model.CostProfile

// Static is a time-independent cost profile (required by Algorithm A).
type Static = model.Static

// Varying is a per-slot cost profile.
type Varying = model.Varying

// Modulated scales a base cost function by a per-slot factor (electricity
// price signals).
type Modulated = model.Modulated

// NewEvaluator returns a cost evaluator for the instance (not safe for
// concurrent use; create one per goroutine).
func NewEvaluator(ins *Instance) *Evaluator { return model.NewEvaluator(ins) }

// ---------- cost functions ----------

// CostFunc is a per-server operating-cost function of the load; it must be
// convex, non-decreasing and non-negative.
type CostFunc = costfn.Func

// Constant is the load-independent cost f(z) = C.
type Constant = costfn.Constant

// Affine is f(z) = Idle + Rate·z.
type Affine = costfn.Affine

// Power is f(z) = Idle + Coef·z^Exp (Exp >= 1).
type Power = costfn.Power

// PiecewiseLinear is a convex piecewise-linear cost curve.
type PiecewiseLinear = costfn.PiecewiseLinear

// Scaled multiplies an underlying cost function by a positive factor.
type Scaled = costfn.Scaled

// NewPiecewiseLinear validates and builds a piecewise-linear cost curve
// from breakpoints (z_i, v_i); see costfn.NewPiecewiseLinear.
func NewPiecewiseLinear(zs, vs []float64) (PiecewiseLinear, error) {
	return costfn.NewPiecewiseLinear(zs, vs)
}

// ---------- offline solvers ----------

// SolveResult is an offline solver's output.
type SolveResult = solver.Result

// SolveOptions controls Solve: the lattice (Gamma) and the number of
// goroutines each DP layer's evaluations fan out over (Workers).
type SolveOptions = solver.Options

// SolveOptimal computes an optimal schedule (Section 4.1).
func SolveOptimal(ins *Instance) (*SolveResult, error) { return solver.SolveOptimal(ins) }

// SolveApprox computes a (1+ε)-approximation (Theorem 21).
func SolveApprox(ins *Instance, eps float64) (*SolveResult, error) {
	return solver.SolveApprox(ins, eps)
}

// Solve runs the offline DP with explicit options.
func Solve(ins *Instance, opts SolveOptions) (*SolveResult, error) { return solver.Solve(ins, opts) }

// OptimalCost returns the optimal total cost without materialising a
// schedule (memory O(|M|) instead of O(T·|M|)).
func OptimalCost(ins *Instance) (float64, error) { return solver.OptimalCost(ins) }

// PrefixTracker incrementally tracks optima of growing prefix instances;
// it powers the online algorithms and is exported for instrumentation.
type PrefixTracker = solver.PrefixTracker

// NewPrefixTracker creates a tracker; see solver.NewPrefixTracker.
func NewPrefixTracker(ins *Instance, opts SolveOptions) (*PrefixTracker, error) {
	return solver.NewPrefixTracker(ins, opts)
}

// ---------- online algorithms (the paper's contribution) ----------

// Online is a deterministic push-based online right-sizing algorithm: it
// receives one SlotInput per slot and returns the configuration to run.
type Online = core.Online

// Buffered is the optional interface of semi-online algorithms whose
// decisions lag their inputs (RecedingHorizon/Lookahead); drivers Flush
// once the stream ends.
type Buffered = core.Buffered

// SlotInput is one slot's observable data: index, demand, cost functions
// and fleet counts.
type SlotInput = model.SlotInput

// Run replays a recorded instance through an online algorithm — the batch
// facade over the streaming Step path — and collects the schedule.
func Run(a Online, ins *Instance) Schedule { return core.Run(a, ins) }

// AlgorithmA is the (2d+1)-competitive algorithm for time-independent
// costs (Section 2).
type AlgorithmA = core.AlgorithmA

// AlgorithmB is the (2d+1+c(I))-competitive algorithm for time-dependent
// costs (Section 3.1).
type AlgorithmB = core.AlgorithmB

// AlgorithmC is the (2d+1+ε)-competitive algorithm for time-dependent
// costs (Section 3.2).
type AlgorithmC = core.AlgorithmC

// NewAlgorithmA prepares Algorithm A for a fleet template; every type
// must carry a Static cost profile.
func NewAlgorithmA(types []ServerType) (*AlgorithmA, error) { return core.NewAlgorithmA(types) }

// NewAlgorithmB prepares Algorithm B for a fleet template.
func NewAlgorithmB(types []ServerType) (*AlgorithmB, error) { return core.NewAlgorithmB(types) }

// NewAlgorithmC prepares Algorithm C with accuracy ε > 0; it requires
// β_j > 0 for every type.
func NewAlgorithmC(types []ServerType, eps float64) (*AlgorithmC, error) {
	return core.NewAlgorithmC(types, eps)
}

// CI returns the instance constant c(I) = Σ_j max_t f_{t,j}(0)/β_j of
// Theorem 13.
func CI(ins *Instance) float64 { return core.CI(ins) }

// RatioBoundA returns Theorem 8's competitive bound 2d+1.
func RatioBoundA(ins *Instance) float64 { return core.RatioBoundA(ins) }

// RatioBoundB returns Theorem 13's competitive bound 2d+1+c(I).
func RatioBoundB(ins *Instance) float64 { return core.RatioBoundB(ins) }

// ---------- baselines ----------

// NewAllOn keeps the whole fleet powered (static provisioning).
func NewAllOn(types []ServerType) (Online, error) { return baseline.NewAllOn(types) }

// NewLoadTracking follows the per-slot operating-cost optimum, ignoring
// switching costs.
func NewLoadTracking(types []ServerType) (Online, error) { return baseline.NewLoadTracking(types) }

// NewSkiRental follows load upward immediately and releases surplus
// servers after their idle cost exceeds β_j.
func NewSkiRental(types []ServerType) (Online, error) { return baseline.NewSkiRental(types) }

// NewLCP is discrete lazy capacity provisioning (homogeneous d = 1 only).
func NewLCP(types []ServerType) (Online, error) { return baseline.NewLCP(types) }

// NewLookahead is receding-horizon control recast as a buffering
// semi-online wrapper: the advisory for slot t is emitted once slots
// t..t+w-1 have been ingested (Buffered interface).
func NewLookahead(types []ServerType, w int) (Online, error) {
	return baseline.NewLookahead(types, w)
}

// ---------- workloads ----------

// Diurnal generates a sinusoidal day/night trace; see workload.Diurnal.
func Diurnal(T int, base, peak float64, period int, phase float64) []float64 {
	return workload.Diurnal(T, base, peak, period, phase)
}

// Steps cycles through load levels with the given dwell time.
func Steps(T int, levels []float64, dwell int) []float64 {
	return workload.Steps(T, levels, dwell)
}

// OnOff alternates high and low demand phases (adversarial shape).
func OnOff(T int, on, off float64, onLen, offLen int) []float64 {
	return workload.OnOff(T, on, off, onLen, offLen)
}

// DiurnalNoisy is Diurnal with uniform noise, seeded by rng.
func DiurnalNoisy(rng *rand.Rand, T int, base, peak float64, period int, noise float64) []float64 {
	return workload.DiurnalNoisy(rng, T, base, peak, period, noise)
}

// Bursty is a base load with random spikes, seeded by rng.
func Bursty(rng *rand.Rand, T int, base, burstHeight, burstProb float64) []float64 {
	return workload.Bursty(rng, T, base, burstHeight, burstProb)
}

// RandomWalk is a bounded mean-reverting random walk, seeded by rng.
func RandomWalk(rng *rand.Rand, T int, start, step, min, max float64) []float64 {
	return workload.RandomWalk(rng, T, start, step, min, max)
}

// ---------- measurement ----------

// Metrics summarises an algorithm's behaviour on an instance.
type Metrics = engine.Metrics

// Comparison accumulates metrics for several algorithms against the exact
// optimum.
type Comparison = engine.Comparison

// Table is an aligned text-table builder.
type Table = engine.Table

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table { return engine.NewTable(headers...) }

// NewComparison solves the instance optimally and seeds the comparison.
func NewComparison(ins *Instance) (*Comparison, error) { return engine.NewComparison(ins) }

// Measure evaluates a schedule; opt > 0 fills the competitive Ratio.
func Measure(ins *Instance, sched Schedule, name string, opt float64) Metrics {
	return engine.Measure(ins, sched, name, opt)
}

// ---------- scenario engine ----------

// Scenario is a named, reproducible workload: an instance generator plus
// the algorithms to run on it (see internal/engine).
type Scenario = engine.Scenario

// AlgSpec describes one algorithm of a scenario: name, schedule producer
// and applicability gate.
type AlgSpec = engine.AlgSpec

// SuiteOptions controls a suite run (worker count, seed, schedule
// retention).
type SuiteOptions = engine.SuiteOptions

// SuiteResult is the outcome of a whole suite run.
type SuiteResult = engine.SuiteResult

// ScenarioResult is one scenario's outcome: the optimum plus one metrics
// row per algorithm.
type ScenarioResult = engine.Result

// ResultSink renders a suite result stream (text, JSON, CSV, markdown).
type ResultSink = engine.Sink

// Scenarios returns every registered scenario sorted by name. The stock
// library covers diurnal, bursty, on/off, random-walk, heterogeneous,
// maintenance (time-varying fleets) and price-modulated workloads.
func Scenarios() []Scenario { return engine.Scenarios() }

// LookupScenario retrieves a registered scenario by name.
func LookupScenario(name string) (Scenario, bool) { return engine.Lookup(name) }

// RegisterScenario adds a scenario to the registry; new workloads are one
// struct literal, not a new main.go.
func RegisterScenario(sc Scenario) error { return engine.Register(sc) }

// EvaluateScenario runs one scenario: it solves the optimum exactly once,
// then runs and measures every applicable algorithm.
func EvaluateScenario(sc Scenario, seed int64) (ScenarioResult, error) {
	return engine.Evaluate(sc, seed, false)
}

// RunSuite fans scenarios × algorithms out over a bounded worker pool;
// results are bit-identical for any worker count.
func RunSuite(scenarios []Scenario, opts SuiteOptions) (*SuiteResult, error) {
	return engine.RunSuite(scenarios, opts)
}

// NewSink returns the result sink for a format name: "text", "json",
// "csv" or "markdown".
func NewSink(format string) (ResultSink, error) { return engine.SinkFor(format) }

// EmitSuite renders a suite result in the given format.
func EmitSuite(w io.Writer, res *SuiteResult, format string) error {
	sink, err := engine.SinkFor(format)
	if err != nil {
		return err
	}
	return sink.Emit(w, res)
}

// DefaultAlgorithms is the standard scenario line-up: Algorithms A, B, C
// plus every baseline, with per-instance applicability gates.
func DefaultAlgorithms() []AlgSpec { return engine.DefaultAlgorithms() }

// OnlineSpec wraps a push-based Online constructor as a scenario
// algorithm.
func OnlineSpec(name string, mk func(types []ServerType) (Online, error)) AlgSpec {
	return engine.OnlineSpec(name, mk)
}

// ---------- algorithm registry ----------

// RegisterAlgorithm adds an algorithm to the registry, making it available
// to scenarios, the CLI (-alg), live sessions and LookupAlgorithm.
func RegisterAlgorithm(s AlgSpec) error { return engine.RegisterAlgorithm(s) }

// LookupAlgorithm resolves a registered algorithm by key, display name or
// any normalisation-equivalent spelling ("algA" finds "alg-a").
func LookupAlgorithm(name string) (AlgSpec, bool) { return engine.LookupAlgorithm(name) }

// Algorithms returns every registered algorithm in registration order.
func Algorithms() []AlgSpec { return engine.Algorithms() }

// AlgorithmCSpec, ApproxSpec and LookaheadSpec parameterise the stock
// registry entries with custom ε / lookahead values for one-off line-ups.
func AlgorithmCSpec(eps float64) AlgSpec { return engine.AlgorithmCSpec(eps) }
func ApproxSpec(eps float64) AlgSpec     { return engine.ApproxSpec(eps) }
func LookaheadSpec(w int) AlgSpec        { return engine.LookaheadSpec(w) }

// ---------- live advisory sessions ----------

// Session manages a live advisory loop over any online algorithm: feed
// demand, get back the configuration to run plus running cost and
// competitive-ratio telemetry, checkpoint and resume at any slot.
type Session = stream.Session

// Advisory is one slot's decision plus telemetry.
type Advisory = stream.Advisory

// SessionOptions tunes a session (telemetry tracker on by default).
type SessionOptions = stream.Options

// SessionCheckpoint is a session's replayable input log.
type SessionCheckpoint = stream.Checkpoint

// NewSession opens a session for an explicitly constructed algorithm.
func NewSession(alg Online, types []ServerType, opts SessionOptions) (*Session, error) {
	return stream.New(alg, types, opts)
}

// OpenSession resolves a registered algorithm by name and opens a session.
func OpenSession(name string, types []ServerType, opts SessionOptions) (*Session, error) {
	return engine.OpenSession(name, types, opts)
}

// ResumeSession rebuilds a session from a checkpoint by replaying its log
// into a freshly resolved algorithm. It resolves through the registry, so
// it reconstructs the original algorithm only for checkpoints taken from
// registry-opened sessions (OpenSession); sessions around hand-constructed
// algorithms should resume in-process via NewSession + the stream
// package's Resume with an identically-constructed algorithm. The session
// shares the counts and cost functions of cp's records (and takes the
// columns of a log held in cp.Log as its own, without a copy): do not
// modify them afterwards, nor push to two sessions resumed from one
// checkpoint.
func ResumeSession(cp *SessionCheckpoint, types []ServerType, opts SessionOptions) (*Session, error) {
	return engine.ResumeSession(cp, types, opts)
}
