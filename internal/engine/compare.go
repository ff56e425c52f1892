package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/solver"
)

// Comparison accumulates metrics for several algorithms on one instance,
// with the exact optimum computed once as the shared yardstick. It is the
// incremental counterpart of Evaluate for callers that add algorithms one
// at a time; not safe for concurrent use.
type Comparison struct {
	Ins *model.Instance
	Opt float64
	Row []Metrics

	ev *model.Evaluator
}

// NewComparison solves the instance optimally and seeds the comparison
// with the OPT row.
func NewComparison(ins *model.Instance) (*Comparison, error) {
	res, err := solver.SolveOptimal(ins)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Ins: ins, Opt: res.Cost(), ev: model.NewEvaluator(ins)}
	c.Row = append(c.Row, MeasureWith(c.ev, res.Schedule, "OPT", c.Opt))
	return c, nil
}

// RunOnline drives an online algorithm to completion and records it.
// The schedule is validated for feasibility; an infeasible schedule is a
// bug in the algorithm and panics.
func (c *Comparison) RunOnline(alg core.Online) Metrics {
	sched := core.Run(alg, c.Ins)
	if err := c.Ins.Feasible(sched); err != nil {
		panic(fmt.Sprintf("engine: %s produced an infeasible schedule: %v", alg.Name(), err))
	}
	return c.Add(alg.Name(), sched)
}

// Add records a pre-computed schedule under the given name.
func (c *Comparison) Add(name string, sched model.Schedule) Metrics {
	m := MeasureWith(c.ev, sched, name, c.Opt)
	c.Row = append(c.Row, m)
	return m
}

// Table renders the comparison as an aligned text table.
func (c *Comparison) Table() *Table {
	return metricsTable(c.Row)
}

// metricsTable renders metric rows in the standard column layout shared
// by Comparison and the text sink.
func metricsTable(rows []Metrics) *Table {
	t := NewTable("algorithm", "total", "operating", "switching", "power-ups", "peak", "ratio")
	for _, m := range rows {
		t.Add(m.Name, FmtF(m.Total), FmtF(m.Operating), FmtF(m.Switching),
			fmt.Sprintf("%d", m.PowerUps), fmt.Sprintf("%d", m.PeakActive), FmtRatio(m.Ratio))
	}
	return t
}
