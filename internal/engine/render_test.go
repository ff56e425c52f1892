package engine

import (
	"strings"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
)

func renderInstance() *model.Instance {
	return &model.Instance{
		Types: []model.ServerType{
			{Name: "cpu", Count: 3, SwitchCost: 1, MaxLoad: 1,
				Cost: model.Static{F: costfn.Constant{C: 1}}},
			{Name: "gpu", Count: 1, SwitchCost: 1, MaxLoad: 4,
				Cost: model.Static{F: costfn.Constant{C: 2}}},
		},
		Lambda: []float64{1, 3, 5, 2},
	}
}

func TestRenderScheduleShape(t *testing.T) {
	ins := renderInstance()
	sched := model.Schedule{{1, 0}, {3, 0}, {1, 1}, {0, 1}}
	out := RenderSchedule(ins, sched, 0)
	if !strings.Contains(out, "a = cpu") || !strings.Contains(out, "b = gpu") {
		t.Errorf("legend missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Peak total is 3 → three level rows plus axis, demand and legend.
	if !strings.HasPrefix(lines[0], "  3 |") {
		t.Errorf("top level wrong: %q", lines[0])
	}
	// Slot 3 (index 2) has 1 cpu + 1 gpu: level 1 shows 'a', level 2 'b'.
	level1 := lines[2] // rows print top-down: 3,2,1
	level2 := lines[1]
	if level1[5+2] != 'a' || level2[5+2] != 'b' {
		t.Errorf("stacking wrong:\n%s", out)
	}
	if !strings.Contains(out, "λ") {
		t.Error("demand sparkline missing")
	}
}

func TestRenderScheduleWindowing(t *testing.T) {
	ins := renderInstance()
	sched := model.Schedule{{1, 0}, {3, 0}, {1, 1}, {0, 1}}
	out := RenderSchedule(ins, sched, 2)
	if !strings.Contains(out, "showing 2 of 4 slots") {
		t.Errorf("windowing note missing:\n%s", out)
	}
}

func TestRenderScheduleZeroDemand(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Name: "", Count: 1, SwitchCost: 1, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1}},
		}},
		Lambda: []float64{0, 0},
	}
	out := RenderSchedule(ins, model.Schedule{{0}, {1}}, 0)
	if !strings.Contains(out, "type0") {
		t.Error("anonymous types should get a default legend name")
	}
	if !strings.Contains(out, "00") {
		t.Error("zero demand should render as zeros")
	}
}
