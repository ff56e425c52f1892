package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
)

// alg is the algorithm every workload serves: Algorithm B handles any
// instance and runs its own exact prefix tracker, so one session slot is
// one layer lookup in the solver's memo.
const alg = "alg-b"

// fleetSeed fixes the scenario instance every plan draws its fleet and
// base trace from. The benchmark seed varies only which session gets which
// phase and noise: the heterogeneous trace's demand level, and with it
// the solver's cost per slot, would otherwise differ from seed to seed.
const fleetSeed = 1

// workload is one traffic mix driven through rightsized. Every session
// gets its own slot sequence from the seed (see plan); the daemon only
// ever sees the generated slots.
type workload struct {
	name     string
	fleet    string  // scenario whose fleet and 48-slot trace the sessions use
	sessions int     // each owned by exactly one client connection
	batch    int     // slots per push request
	rate     float64 // open-loop offered load, slots/s
	preAge   int     // slots every session is opened with, from a checkpoint
	fresh    bool    // demand scaled by 0.9+0.2U, so no slot value repeats
	wal      bool    // every slot write-ahead-logged with an fsync
	// evict > 0 runs the daemon with -idle-evict evict and a snapshot
	// directory; the open-loop phase is then the only phase, so that every
	// push finds its session evicted.
	evict time.Duration
	// ladder is how many slots each per-slot rung of the traced run's
	// ladder times: enough for a stable mean, bounded in time where a slot
	// is expensive.
	ladder int
	// purpose asserts that a run exercised what the workload was chosen
	// for; it sees the daemon counters over the measured phases.
	purpose func(d counters, p *plan, fed []int) error
}

// workloads is the benchmark. The open-loop rates keep the daemon, on one
// CPU, busy a fifth to a third of the time (bench/README.md records the
// check): far enough from its capacity that a slow moment of a shared
// machine does not build a queue.
var workloads = []workload{
	{
		name: "steady-hit", fleet: "quickstart", sessions: 64, batch: 1, rate: 4000, preAge: 960, ladder: 20000,
		purpose: func(d counters, _ *plan, _ []int) error {
			return atLeast("memo hit ratio", d.memoHitRatio(), 0.95)
		},
	},
	{
		name: "fresh-demand", fleet: "heterogeneous", sessions: 16, batch: 16, rate: 400, preAge: 48, fresh: true,
		ladder: 640, // about 300 µs a slot: every slot misses the memo
		purpose: func(d counters, p *plan, fed []int) error {
			if r := d.memoHitRatio(); r > 0.05 {
				return fmt.Errorf("memo hit ratio %.4f, want <= 0.05", r)
			}
			if r := p.repeatedShare(fed); r >= 0.001 {
				return fmt.Errorf("repeated demand values %.5f of slots, want < 0.001", r)
			}
			return nil
		},
	},
	{
		name: "durable-always", fleet: "quickstart", sessions: 64, batch: 1, rate: 1500, preAge: 960, wal: true,
		ladder: 2000, // one fsync a slot
		purpose: func(d counters, _ *plan, _ []int) error {
			return atLeast("WAL fsyncs per slot", ratio(d.walFsyncs, d.slots), 1)
		},
	},
	{
		name: "hourly-resume", fleet: "quickstart", sessions: 300, batch: 1, rate: 20, preAge: 2000, ladder: 20000,
		evict: time.Second,
		purpose: func(d counters, _ *plan, _ []int) error {
			return atLeast("resumes per push", ratio(d.resumed, d.slots), 0.9)
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func atLeast(what string, got, want float64) error {
	if got < want {
		return fmt.Errorf("%s %.4f, want >= %g", what, got, want)
	}
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// phases splits a run of the given length. Warm-up traffic is sent at the
// open-loop rate before the run and not measured; the open-loop phase
// gives the latency diagnostics, and the closed-loop phase the CPU time,
// memory and throughput. hourly-resume has only its open-loop phase, which
// gives all of them: warm-up or back-to-back traffic would keep its
// sessions resident.
func (w workload) phases(run time.Duration) (warm, open, closed time.Duration) {
	if w.evict > 0 {
		return 0, run, 0
	}
	return min(2*time.Second, run/10), run / 4, run * 3 / 4
}

// plan is a workload's inputs for one seed: the session ids, each
// session's position in the open-loop schedule, and a generator per
// session that yields the same slot sequence every time it is rebuilt.
type plan struct {
	w     workload
	seed  int64
	types []model.ServerType
	trace []float64
	ids   []string
	phase []int // per-session offset into the trace
	order []int // schedule position -> session index
}

func newPlan(w workload, seed int64) (*plan, error) {
	sc, ok := engine.Lookup(w.fleet)
	if !ok {
		return nil, fmt.Errorf("unknown fleet scenario %q", w.fleet)
	}
	ins := sc.Instance(fleetSeed)
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	p := &plan{w: w, seed: seed, types: ins.Types, trace: ins.Lambda,
		ids: make([]string, w.sessions), phase: make([]int, w.sessions)}
	for i := range p.ids {
		p.ids[i] = fmt.Sprintf("s%03d", i)
		p.phase[i] = rng.IntN(len(p.trace))
	}
	p.order = rng.Perm(w.sessions)
	return p, nil
}

// gen returns a fresh generator of session i's slot sequence. Indices at
// or past the session count give sequences no session receives, which the
// ladder uses to reach the solver with values the memo has not seen.
func (p *plan) gen(i int) *slotGen {
	g := &slotGen{trace: p.trace, phase: i % len(p.trace)}
	if i < len(p.phase) {
		g.phase = p.phase[i]
	}
	if p.w.fresh {
		g.noise = rand.New(rand.NewPCG(uint64(p.seed), uint64(i)+1))
	}
	return g
}

// repeatedShare is the share of the generated slots (fed[i] of session i)
// whose demand value already occurred earlier in the run.
func (p *plan) repeatedShare(fed []int) float64 {
	seen := map[float64]struct{}{}
	total, repeats := 0, 0
	for i, n := range fed {
		g := p.gen(i)
		for range n {
			v := g.next()
			if _, dup := seen[v]; dup {
				repeats++
			}
			seen[v] = struct{}{}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(repeats) / float64(total)
}

// slotGen yields one session's demand: the fleet's trace, cycled from the
// session's phase, scaled by 0.9+0.2U on fresh-demand.
type slotGen struct {
	trace []float64
	phase int
	k     int
	noise *rand.Rand
}

func (g *slotGen) next() float64 {
	v := g.trace[(g.phase+g.k)%len(g.trace)]
	g.k++
	if g.noise != nil {
		v *= 0.9 + 0.2*g.noise.Float64()
	}
	return v
}
