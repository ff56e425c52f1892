package engine

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// RenderSchedule draws a schedule as a stacked ASCII chart: one column per
// slot, one glyph per active server, letters distinguishing types
// (a = type 0, b = type 1, …), with the demand series printed underneath.
// Wide schedules are windowed to the first maxCols slots.
func RenderSchedule(ins *model.Instance, sched model.Schedule, maxCols int) string {
	if maxCols <= 0 {
		maxCols = 72
	}
	T := len(sched)
	if T > maxCols {
		T = maxCols
	}
	peak := 1
	for t := 0; t < T; t++ {
		if tot := sched[t].Total(); tot > peak {
			peak = tot
		}
	}

	var b strings.Builder
	for level := peak; level >= 1; level-- {
		fmt.Fprintf(&b, "%3d |", level)
		for t := 0; t < T; t++ {
			b.WriteByte(glyphAt(sched[t], level))
		}
		b.WriteByte('\n')
	}
	b.WriteString("    +")
	b.WriteString(strings.Repeat("-", T))
	b.WriteByte('\n')

	// Demand sparkline scaled to single digits 0-9.
	maxLoad := 0.0
	for t := 0; t < T; t++ {
		if ins.Lambda[t] > maxLoad {
			maxLoad = ins.Lambda[t]
		}
	}
	b.WriteString("  λ  ")
	for t := 0; t < T; t++ {
		if maxLoad == 0 {
			b.WriteByte('0')
			continue
		}
		d := int(ins.Lambda[t] / maxLoad * 9.999)
		b.WriteByte(byte('0' + d))
	}
	b.WriteString("  (demand, 0-9 scaled)\n")

	names := make([]string, ins.D())
	for j := range names {
		name := ins.Types[j].Name
		if name == "" {
			name = fmt.Sprintf("type%d", j)
		}
		names[j] = fmt.Sprintf("%c = %s", 'a'+j, name)
	}
	b.WriteString("      " + strings.Join(names, ", "))
	if len(sched) > T {
		fmt.Fprintf(&b, "  (showing %d of %d slots)", T, len(sched))
	}
	b.WriteByte('\n')
	return b.String()
}

// glyphAt returns the type letter occupying the given stack level (types
// stack bottom-up in index order), or space above the stack.
func glyphAt(x model.Config, level int) byte {
	acc := 0
	for j, v := range x {
		acc += v
		if level <= acc {
			return byte('a' + j)
		}
	}
	return ' '
}
