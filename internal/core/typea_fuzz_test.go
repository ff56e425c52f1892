package core

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/costfn"
	"repro/internal/model"
)

// refTypeA is Algorithm A's per-type machine as it was first written:
// it keeps w, the servers powered up at every slot it has processed,
// and reads the expiring count from it. It is the oracle the queue-based
// TypeA is checked against.
type refTypeA struct {
	tbar int
	t    int
	w    []int // w[s-1]: servers powered up at slot s
	x    int
}

func (s *refTypeA) Step(xhat int) int {
	s.t++
	s.w = append(s.w, 0)
	if expired := s.t - s.tbar; expired >= 1 {
		s.x -= s.w[expired-1]
	}
	if s.x <= xhat {
		s.w[s.t-1] = xhat - s.x
		s.x = xhat
	}
	return s.x
}

func (s *refTypeA) ClampTo(m int) int {
	lo := max(s.t-s.tbar+1, 1) // older power-ups already expired
	for t := s.t; t >= lo && s.x > m; t-- {
		drop := min(s.w[t-1], s.x-m)
		s.w[t-1] -= drop
		s.x -= drop
	}
	if s.x > m {
		panic("refTypeA: ClampTo accounting mismatch")
	}
	return s.x
}

// FuzzTypeA holds the queue-based TypeA to the whole-history oracle:
// each byte is a slot whose low three bits are the target x̂ and whose
// high bits, when bit 3 is set, clamp the machine after the step. The
// first byte picks t̄, 0 meaning the never-expiring timeout. Every step
// and clamp must return the oracle's x, and the queue must stay valid
// with at most x pending power-ups. On a run without clamps,
// analysis.PowerUpsA must recover the oracle's w from the schedule.
//
// Run with `go test -fuzz FuzzTypeA ./internal/core`; CI runs it for
// 30 s.
func FuzzTypeA(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 3, 0, 7, 1, 0, 0, 0, 4})
	f.Add([]byte{0, 4, 0, 0, 0x18, 5, 0})
	f.Add([]byte{1, 7, 7, 0x2f, 6, 0x0b, 0, 3})
	f.Add([]byte{5, 1, 2, 3, 0x5c, 6, 7, 0x1f, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 200 {
			return
		}
		tbar := noTimeout
		if data[0]%16 != 0 {
			tbar = int(data[0] % 16)
		}
		q, ref := NewTypeA(tbar), &refTypeA{tbar: tbar}
		var sched model.Schedule
		clamped := false
		for i, b := range data[1:] {
			xhat := int(b & 7)
			x, want := q.Step(xhat), ref.Step(xhat)
			if b&8 != 0 {
				m := int(b >> 4 & 7)
				x, want = q.ClampTo(m), ref.ClampTo(m)
				clamped = true
			}
			if x != want {
				t.Fatalf("t̄ %d slot %d: x = %d, oracle %d", tbar, i+1, x, want)
			}
			if live := q.events[q.head:]; len(live) > x || !q.valid(q.t-tbar) {
				t.Fatalf("t̄ %d slot %d: pending power-ups %v do not make up x = %d", tbar, i+1, live, x)
			}
			sched = append(sched, model.Config{x})
		}
		if clamped {
			return
		}
		ins := &model.Instance{
			Types:  []model.ServerType{{Count: 7, SwitchCost: 1, MaxLoad: 1, Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}}},
			Lambda: make([]float64, len(sched)),
		}
		w, err := analysis.PowerUpsA(ins, sched, []int{tbar})
		if err != nil {
			t.Fatalf("t̄ %d: %v", tbar, err)
		}
		if !slices.Equal(w[0], ref.w) {
			t.Fatalf("t̄ %d: power-ups derived %v, oracle %v", tbar, w[0], ref.w)
		}
	})
}
