package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stream"
)

// gateSessions is how many sessions per run are checked against an
// in-process reference.
const gateSessions = 4

// gate checks a run's outputs. A sample of sessions, drawn from the seed,
// must report the fed count the client had acknowledged and the decided
// count and cumulative cost, bit for bit, of an in-process session fed the
// same generated slots. Then the workload's purpose assertion must hold on
// the counters of the measured phases. It returns every problem found.
func gate(c *conn, p *plan, fed []int, d counters) []string {
	var problems []string
	rng := rand.New(rand.NewPCG(uint64(p.seed), 1))
	sample := rng.Perm(len(p.ids))[:min(gateSessions, len(p.ids))]
	infos := make([]serve.SessionInfo, len(sample))
	for k, i := range sample {
		status, body, err := c.do("GET", "/v1/sessions/"+p.ids[i], nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &infos[k])
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("session %s: %v", p.ids[i], err))
			return problems
		}
	}
	refs := make([]*stream.Session, len(sample))
	errs := make([]error, len(sample))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(sample); k += workers {
				refs[k], errs[k] = reference(p, sample[k], fed[sample[k]])
			}
		}()
	}
	wg.Wait()
	for k, i := range sample {
		got, ref := infos[k], refs[k]
		switch {
		case errs[k] != nil:
			problems = append(problems, fmt.Sprintf("session %s: reference: %v", p.ids[i], errs[k]))
		case got.Fed != fed[i]:
			problems = append(problems, fmt.Sprintf("session %s: fed %d, client acknowledged %d", p.ids[i], got.Fed, fed[i]))
		case got.Fed != ref.Fed() || got.Decided != ref.Decided() ||
			math.Float64bits(got.CumCost) != math.Float64bits(ref.CumCost()):
			problems = append(problems, fmt.Sprintf("session %s: fed/decided/cum_cost %d/%d/%v, reference %d/%d/%v",
				p.ids[i], got.Fed, got.Decided, got.CumCost, ref.Fed(), ref.Decided(), ref.CumCost()))
		}
	}
	if err := p.w.purpose(d, p, fed); err != nil {
		problems = append(problems, p.w.name+": "+err.Error())
	}
	return problems
}

// reference feeds session i's first n generated slots to an in-process
// session opened through the engine, as the daemon's manager does.
func reference(p *plan, i, n int) (*stream.Session, error) {
	s, err := engine.OpenSession(alg, p.types, stream.Options{})
	if err != nil {
		return nil, err
	}
	g := p.gen(i)
	var adv stream.Advisory
	for range n {
		if _, err := s.Push(model.SlotInput{Lambda: g.next()}, &adv); err != nil {
			return nil, err
		}
	}
	return s, nil
}
