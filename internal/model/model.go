// Package model defines the data-center right-sizing problem of
// Albers–Quedenfeld (SPAA 2021): problem instances
// I = (T, d, m, β, F, Λ), integral server configurations, schedules, and
// the cost semantics of Equation (2),
//
//	C(X) = Σ_t [ g_t(x_t) + Σ_j β_j (x_{t,j} − x_{t−1,j})^+ ],
//
// with x_0 = x_{T+1} = 0. Time slots are 1-based throughout, matching the
// paper; slice indices shift by one internally.
package model

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/costfn"
	"repro/internal/dispatch"
	"repro/internal/numeric"
)

// CostProfile yields the operating-cost function f_{t,j} of a server type
// for time slot t (1-based). Implementations must return functions that are
// convex, non-decreasing and non-negative.
type CostProfile interface {
	At(t int) costfn.Func
}

// Static is a time-independent cost profile: f_{t,j} = f_j for all t.
// Algorithm A (Section 2) requires all profiles to be Static.
type Static struct {
	F costfn.Func
}

// At implements CostProfile.
func (s Static) At(int) costfn.Func { return s.F }

// Varying is a fully time-dependent cost profile with one function per
// slot. Fs[t-1] is the function for slot t.
type Varying struct {
	Fs []costfn.Func
}

// At implements CostProfile.
func (v Varying) At(t int) costfn.Func { return v.Fs[t-1] }

// Horizon returns the number of slots the profile defines.
func (v Varying) Horizon() int { return len(v.Fs) }

// Modulated scales a base function by a per-slot factor (e.g. an
// electricity price signal): f_{t,j}(z) = Scale[t-1] · F(z).
type Modulated struct {
	F     costfn.Func
	Scale []float64
}

// At implements CostProfile.
func (m Modulated) At(t int) costfn.Func {
	return costfn.Scaled{F: m.F, Factor: m.Scale[t-1]}
}

// Horizon returns the number of slots the profile defines.
func (m Modulated) Horizon() int { return len(m.Scale) }

// bounded is a CostProfile defined for slots 1..Horizon() only.
type bounded interface {
	Horizon() int
}

// ServerType describes one of the d heterogeneous server types.
type ServerType struct {
	Name       string      // informational label ("cpu", "gpu", …)
	Count      int         // m_j: number of servers of this type
	SwitchCost float64     // β_j: cost of powering one server up
	MaxLoad    float64     // zmax_j: per-server capacity per slot
	Cost       CostProfile // f_{t,j}
}

// Instance is a problem instance I = (T, d, m, β, F, Λ). The zero value is
// not usable; construct instances with struct literals and call Validate.
type Instance struct {
	Types  []ServerType
	Lambda []float64 // job volumes λ_1..λ_T; Lambda[t-1] is slot t

	// Counts optionally makes the data-center size time-dependent
	// (Section 4.3): Counts[t-1][j] overrides Types[j].Count for slot t.
	// nil means the sizes are static.
	Counts [][]int
}

// T returns the number of time slots.
func (ins *Instance) T() int { return len(ins.Lambda) }

// D returns the number of server types.
func (ins *Instance) D() int { return len(ins.Types) }

// CountAt returns m_{t,j}, the number of available servers of type j
// (0-based) during slot t (1-based).
func (ins *Instance) CountAt(t, j int) int {
	if ins.Counts != nil {
		return ins.Counts[t-1][j]
	}
	return ins.Types[j].Count
}

// TimeVarying reports whether the instance has time-dependent data-center
// sizes.
func (ins *Instance) TimeVarying() bool { return ins.Counts != nil }

// Validate checks the structural invariants of the instance: positive
// dimensions, non-negative parameters, per-slot feasibility (total capacity
// covers each λ_t), and well-formed Counts if present.
func (ins *Instance) Validate() error {
	if err := ValidateFleet(ins.Types); err != nil {
		return err
	}
	if ins.T() == 0 {
		return fmt.Errorf("model: instance has no time slots")
	}
	for j, st := range ins.Types {
		if st.Cost == nil {
			return fmt.Errorf("model: type %d has no cost profile", j)
		}
	}
	if ins.Counts != nil && len(ins.Counts) != ins.T() {
		return fmt.Errorf("model: Counts has %d slots, want %d", len(ins.Counts), ins.T())
	}
	for t := 1; t <= ins.T(); t++ {
		var counts []int
		if ins.Counts != nil {
			counts = ins.Counts[t-1]
		}
		if err := checkSlot(ins.Types, t, ins.Lambda[t-1], counts); err != nil {
			return err
		}
	}
	return nil
}

// ValidateFleet checks a fleet template's static per-type parameters:
// at least one type, and for each a non-negative count and switching
// cost and a positive capacity. Cost profiles are not checked.
func ValidateFleet(types []ServerType) error {
	if len(types) == 0 {
		return fmt.Errorf("model: fleet has no server types")
	}
	for j, st := range types {
		if st.Count < 0 {
			return fmt.Errorf("model: type %d has negative count %d", j, st.Count)
		}
		if st.SwitchCost < 0 {
			return fmt.Errorf("model: type %d has negative switching cost %g", j, st.SwitchCost)
		}
		if st.MaxLoad <= 0 {
			return fmt.Errorf("model: type %d has non-positive capacity %g", j, st.MaxLoad)
		}
	}
	return nil
}

// checkSlot checks slot t's demand λ_t against the fleet: finite and
// non-negative, and covered by the total capacity of the slot's counts —
// one count per type between 0 and the template's Count (the paper's
// m_j = max_t m_{t,j}, Section 4.3, which bounds the slot's lattice),
// nil meaning the template counts.
func checkSlot(types []ServerType, t int, lambda float64, counts []int) error {
	if lambda < 0 {
		return fmt.Errorf("model: negative job volume %g at slot %d", lambda, t)
	}
	if math.IsNaN(lambda) || math.IsInf(lambda, 1) {
		return fmt.Errorf("model: non-finite job volume %g at slot %d", lambda, t)
	}
	if counts != nil && len(counts) != len(types) {
		return fmt.Errorf("model: slot %d carries %d counts, want %d", t, len(counts), len(types))
	}
	capacity := 0.0
	for j, st := range types {
		c := st.Count
		if counts != nil {
			c = counts[j]
		}
		if c < 0 {
			return fmt.Errorf("model: negative count at slot %d type %d", t, j)
		}
		if c > st.Count {
			return fmt.Errorf("model: slot %d has %d servers of type %d, above the fleet's %d", t, c, j, st.Count)
		}
		capacity += float64(c) * st.MaxLoad
	}
	if capacity < lambda*(1-1e-12) {
		return fmt.Errorf("model: slot %d demand %g exceeds total capacity %g", t, lambda, capacity)
	}
	return nil
}

// Prefix returns the shortened instance I_t = (t, d, m, β, F, Λ_t) of
// Section 2. The returned instance shares underlying slices with ins.
func (ins *Instance) Prefix(t int) *Instance {
	if t < 0 || t > ins.T() {
		panic(fmt.Sprintf("model: prefix length %d out of range [0, %d]", t, ins.T()))
	}
	p := &Instance{
		Types:  ins.Types,
		Lambda: ins.Lambda[:t],
	}
	if ins.Counts != nil {
		p.Counts = ins.Counts[:t]
	}
	return p
}

// TimeIndependent reports whether every type's cost profile is Static, the
// precondition of Algorithm A.
func (ins *Instance) TimeIndependent() bool {
	for _, st := range ins.Types {
		if _, ok := st.Cost.(Static); !ok {
			return false
		}
	}
	return true
}

// Config is a server configuration x = (x_1, …, x_d): the number of active
// servers of each type during one slot.
type Config []int

// Clone returns a copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two configurations are identical.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether no server is active.
func (c Config) IsZero() bool {
	for _, v := range c {
		if v != 0 {
			return false
		}
	}
	return true
}

// Total returns the total number of active servers.
func (c Config) Total() int {
	sum := 0
	for _, v := range c {
		sum += v
	}
	return sum
}

// String renders the configuration as "(x1, x2, …)".
func (c Config) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range c {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Schedule is a sequence of configurations X = (x_1, …, x_T).
// Schedule[t-1] is the configuration during slot t. The boundary states
// x_0 = x_{T+1} = 0 are implicit.
type Schedule []Config

// Clone deep-copies the schedule.
func (s Schedule) Clone() Schedule {
	out := make(Schedule, len(s))
	for i, c := range s {
		out[i] = c.Clone()
	}
	return out
}

// CostBreakdown decomposes a schedule's total cost per Equation (2).
type CostBreakdown struct {
	Operating float64 // C_op = Σ_t g_t(x_t)
	Switching float64 // C_sw = Σ_t Σ_j β_j (x_{t,j} − x_{t−1,j})^+
}

// Total returns C = C_op + C_sw.
func (b CostBreakdown) Total() float64 { return b.Operating + b.Switching }

// Evaluator computes operating costs g_t(x) and schedule costs for one
// instance, reusing scratch buffers. Create one per goroutine with
// NewEvaluator; it is not safe for concurrent use.
//
// Costs of many configurations in one slot resolve the slot once:
// PrepareSlot(t), or Prepare(in) for a streamed slot, then GPrepared(x)
// per configuration. G and SplitInto are both steps for a single
// configuration. An evaluator for streamed slots alone needs only the
// fleet template: NewEvaluator(&Instance{Types: types}).
type Evaluator struct {
	ins     *Instance
	servers []dispatch.Server
	counts  []int   // the prepared slot's m_{t,j}
	lambda  float64 // the prepared slot's λ_t
	solver  dispatch.Solver
	fit     bool // the last solved configuration fit the counts
}

// NewEvaluator returns an evaluator for the instance.
func NewEvaluator(ins *Instance) *Evaluator {
	return &Evaluator{
		ins:     ins,
		servers: make([]dispatch.Server, ins.D()),
		counts:  make([]int, ins.D()),
	}
}

// Instance returns the instance the evaluator was built for.
func (e *Evaluator) Instance() *Instance { return e.ins }

// PrepareSlot resolves slot t (1-based) for GPrepared: its server counts,
// job volume, capacities and cost functions, and the dispatch solver's
// type table built from them.
func (e *Evaluator) PrepareSlot(t int) {
	in := SlotInput{T: t, Lambda: e.ins.Lambda[t-1]}
	if e.ins.Counts != nil {
		in.Counts = e.ins.Counts[t-1]
	}
	e.Prepare(in)
}

// Prepare is PrepareSlot for a slot that arrives as a SlotInput rather
// than as a slot of the instance: its omitted counts fall back to the
// instance's types, and its omitted costs to their profiles at in.T, so
// a slot that omits any must carry its absolute index (ResolveSlot
// resolves it for a stream).
func (e *Evaluator) Prepare(in SlotInput) {
	for j, st := range e.ins.Types {
		e.counts[j] = in.Count(j, st.Count)
		e.servers[j] = dispatch.Server{Cap: st.MaxLoad, F: slotCost(in, j, st.Cost, in.T)}
	}
	e.lambda = in.Lambda
	e.solver.Prepare(e.servers)
}

// GPrepared returns g_t(x) for the slot of the last PrepareSlot or
// Prepare call, bit-identical to G(t, x).
func (e *Evaluator) GPrepared(x Config) float64 {
	if e.fit = fitsCounts(x, e.counts); !e.fit {
		return math.Inf(1)
	}
	return e.solver.CostPrepared(x, e.lambda)
}

// Dual returns the canonical dual multiplier ν* of the dispatch program
// the last GPrepared, G or SplitInto call solved (dispatch.Solver.Dual):
// NaN when that call ran no dual search, which includes a configuration
// outside the slot's counts. By weak duality g_t(x) ≥ ν·λ_t + Σ_j x_j·
// min_{0≤z≤zmax_j} (f_{t,j}(z) − ν·z) for every ν and every x.
func (e *Evaluator) Dual() float64 {
	if !e.fit {
		return math.NaN()
	}
	return e.solver.Dual()
}

// fitsCounts reports whether 0 <= x_j <= counts_j for every type. A
// configuration of the wrong dimension panics.
func fitsCounts(x Config, counts []int) bool {
	if len(x) != len(counts) {
		panic("model: configuration dimension mismatch")
	}
	for j, c := range counts {
		if x[j] < 0 || x[j] > c {
			return false
		}
	}
	return true
}

// G returns the operating cost g_t(x) for slot t (1-based). Configurations
// exceeding the per-slot server counts yield +Inf (they correspond to
// vertices absent from the paper's graph).
func (e *Evaluator) G(t int, x Config) float64 {
	e.PrepareSlot(t)
	return e.GPrepared(x)
}

// Split returns the optimal load split (volumes and fractions) behind
// g_t(x) as a fresh Assignment; SplitInto is the buffer-reusing variant
// for per-slot reporting loops.
func (e *Evaluator) Split(t int, x Config) dispatch.Assignment {
	var res dispatch.Assignment
	e.SplitInto(t, x, &res)
	return res
}

// SplitInto computes the optimal load split behind g_t(x) into res,
// reusing its volume/fraction buffers and the evaluator's scratch — the
// allocation-free counterpart of Split.
func (e *Evaluator) SplitInto(t int, x Config, res *dispatch.Assignment) {
	e.PrepareSlot(t)
	if e.fit = fitsCounts(x, e.counts); e.fit {
		e.solver.AssignPrepared(x, e.lambda, res)
		return
	}
	d := len(x)
	if cap(res.Y) < d {
		res.Y = make([]float64, d)
	}
	if cap(res.Z) < d {
		res.Z = make([]float64, d)
	}
	res.Y, res.Z = res.Y[:d], res.Z[:d]
	res.Cost = math.Inf(1)
	for i := 0; i < d; i++ {
		res.Y[i], res.Z[i] = 0, 0
	}
}

// SwitchCost returns Σ_j β_j (cur_j − prev_j)^+, the cost of moving from
// configuration prev to cur.
func (ins *Instance) SwitchCost(prev, cur Config) float64 {
	return SwitchCostOf(ins.Types, prev, cur)
}

// SwitchCostOf is SwitchCost for a bare fleet template — the single
// definition of the switching semantics shared by batch evaluation, the
// lookahead window DP and the session's streaming cost accounting.
func SwitchCostOf(types []ServerType, prev, cur Config) float64 {
	total := 0.0
	for j := range types {
		if up := cur[j] - prev[j]; up > 0 {
			total += types[j].SwitchCost * float64(up)
		}
	}
	return total
}

// Cost evaluates the full cost of a schedule per Equation (2). Infeasible
// slots (demand not covered) surface as +Inf operating cost.
func (e *Evaluator) Cost(s Schedule) CostBreakdown {
	if len(s) != e.ins.T() {
		panic(fmt.Sprintf("model: schedule has %d slots, instance has %d", len(s), e.ins.T()))
	}
	var br CostBreakdown
	prev := make(Config, e.ins.D())
	opCosts := make([]float64, 0, len(s))
	for t := 1; t <= len(s); t++ {
		opCosts = append(opCosts, e.G(t, s[t-1]))
		br.Switching += e.ins.SwitchCost(prev, s[t-1])
		prev = s[t-1]
	}
	br.Operating = numeric.SumKahan(opCosts)
	return br
}

// Feasible checks the paper's feasibility conditions for every slot:
// 0 <= x_{t,j} <= m_{t,j} and Σ_j x_{t,j}·zmax_j >= λ_t. It returns a
// descriptive error for the first violation.
func (ins *Instance) Feasible(s Schedule) error {
	if len(s) != ins.T() {
		return fmt.Errorf("model: schedule has %d slots, instance has %d", len(s), ins.T())
	}
	for t := 1; t <= ins.T(); t++ {
		x := s[t-1]
		if len(x) != ins.D() {
			return fmt.Errorf("model: slot %d config has %d types, want %d", t, len(x), ins.D())
		}
		cap := 0.0
		for j := range ins.Types {
			if x[j] < 0 || x[j] > ins.CountAt(t, j) {
				return fmt.Errorf("model: slot %d type %d count %d out of [0, %d]",
					t, j, x[j], ins.CountAt(t, j))
			}
			cap += float64(x[j]) * ins.Types[j].MaxLoad
		}
		if cap < ins.Lambda[t-1]*(1-1e-12) {
			return fmt.Errorf("model: slot %d capacity %g below demand %g",
				t, cap, ins.Lambda[t-1])
		}
	}
	return nil
}
