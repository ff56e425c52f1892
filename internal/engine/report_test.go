package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/workload"
)

func testInstance() *model.Instance {
	return &model.Instance{
		Types: []model.ServerType{
			{Name: "slow", Count: 3, SwitchCost: 2, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
			{Name: "fast", Count: 2, SwitchCost: 8, MaxLoad: 4,
				Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.5}}},
		},
		Lambda: workload.Diurnal(12, 1, 9, 6, 0),
	}
}

func TestMeasureCountsActivity(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Count: 3, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{1, 3, 2},
	}
	sched := model.Schedule{{1}, {3}, {2}}
	m := Measure(ins, sched, "x", 0)
	if m.PowerUps != 3 { // 1 up, then 2 up
		t.Errorf("PowerUps = %d, want 3", m.PowerUps)
	}
	if m.PeakActive != 3 {
		t.Errorf("PeakActive = %d, want 3", m.PeakActive)
	}
	if math.Abs(m.MeanActive-2) > 1e-12 {
		t.Errorf("MeanActive = %g, want 2", m.MeanActive)
	}
	if m.Ratio != 0 {
		t.Error("Ratio should be 0 when opt unknown")
	}
	if math.Abs(m.Operating-6) > 1e-9 || math.Abs(m.Switching-6) > 1e-9 {
		t.Errorf("cost split = %g/%g, want 6/6", m.Operating, m.Switching)
	}
}

func TestComparisonEndToEnd(t *testing.T) {
	ins := testInstance()
	c, err := NewComparison(ins)
	if err != nil {
		t.Fatal(err)
	}
	if c.Opt <= 0 {
		t.Fatal("OPT must be positive here")
	}
	a, err := core.NewAlgorithmA(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	ma := c.RunOnline(a)
	if ma.Ratio < 1-1e-9 {
		t.Errorf("online ratio %g below 1", ma.Ratio)
	}
	if !numeric.LessEqual(ma.Ratio, 2*float64(ins.D())+1, 1e-9) {
		t.Errorf("ratio %g exceeds theorem bound", ma.Ratio)
	}
	allOn, err := baseline.NewAllOn(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	mAll := c.RunOnline(allOn)
	if mAll.Total < ma.Total {
		t.Log("note: AllOn beat AlgorithmA on this instance (possible on tiny fleets)")
	}
	// OPT row must have ratio exactly 1.
	if math.Abs(c.Row[0].Ratio-1) > 1e-9 {
		t.Errorf("OPT ratio = %g", c.Row[0].Ratio)
	}
	tbl := c.Table().String()
	for _, want := range []string{"OPT", "AlgorithmA", "AllOn", "ratio"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestComparisonAddSchedule(t *testing.T) {
	ins := testInstance()
	c, err := NewComparison(ins)
	if err != nil {
		t.Fatal(err)
	}
	sched := make(model.Schedule, ins.T())
	for i := range sched {
		sched[i] = model.Config{3, 2}
	}
	m := c.Add("static", sched)
	if m.Ratio < 1 {
		t.Errorf("static provisioning ratio %g < 1", m.Ratio)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.Add("a", "1")
	tbl.Add("long-name", "2.5")
	s := tbl.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line %q", lines[0])
	}
	// All data lines equal width after alignment.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("misaligned rows:\n%s", s)
	}

	var csv strings.Builder
	tbl.RenderCSV(&csv)
	if !strings.HasPrefix(csv.String(), "name,value\n") {
		t.Errorf("csv = %q", csv.String())
	}

	md := tbl.Markdown()
	if !strings.Contains(md, "| name | value |") || !strings.Contains(md, "| --- | --- |") {
		t.Errorf("markdown = %q", md)
	}
}

func TestTableShortRowAndOverflow(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.Add("only")
	if !strings.Contains(tbl.String(), "only") {
		t.Error("short row should render")
	}
	defer func() {
		if recover() == nil {
			t.Error("overflow row should panic")
		}
	}()
	tbl.Add("1", "2", "3")
}

func TestFormatters(t *testing.T) {
	if FmtF(math.Inf(1)) != "inf" {
		t.Error("FmtF inf")
	}
	if FmtF(1.234) != "1.23" {
		t.Errorf("FmtF = %s", FmtF(1.234))
	}
	if FmtRatio(0) != "-" {
		t.Error("FmtRatio zero")
	}
	if FmtRatio(1.5) != "1.500" {
		t.Errorf("FmtRatio = %s", FmtRatio(1.5))
	}
}

func TestComparisonPanicsOnInfeasibleAlgorithm(t *testing.T) {
	ins := testInstance()
	c, err := NewComparison(ins)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.RunOnline(&brokenAlg{T: ins.T(), d: ins.D()})
}

type brokenAlg struct{ T, t, d int }

func (b *brokenAlg) Name() string { return "broken" }
func (b *brokenAlg) Step(model.SlotInput) model.Config {
	b.t++
	return make(model.Config, b.d) // all zeros: infeasible under load
}
