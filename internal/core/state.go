package core

import (
	"fmt"
	"math"

	"repro/internal/statebuf"
)

// The state codecs of Algorithms A and B (core.Snapshotter). Each state
// holds the slot count, the prefix optimum of the last step with its
// cost, the d per-type power-down machines and the prefix tracker's DP
// state. No slot input is saved: a restore Seeks past them.
const (
	stateVersion = 1
	stateKindA   = 'A'
	stateKindB   = 'B'
)

// appendState appends the fields Algorithms A and B share, in front of
// the per-type machines: the slot count and the tracker's prefix optimum,
// its cost and configuration.
func (r *prefixRule) appendState(dst []byte, kind byte, t int) []byte {
	dst = statebuf.AppendHeader(dst, kind, stateVersion)
	dst = statebuf.AppendInt(dst, t)
	dst = statebuf.AppendFloat(dst, r.tracker.Opt())
	return statebuf.AppendInts(dst, r.lastOpt)
}

// restore loads a state appendState began: the shared fields, then each
// type's machine through readType, then the tracker's nested state, which
// must cover the same slots and carry, bit for bit, the same
// prefix-optimum cost. lastOpt is nil exactly before the first slot and
// holds one count per fleet type after it.
func (p *prefixRule) restore(state []byte, kind byte, readType func(r *statebuf.Reader, j, t int) error) error {
	r := statebuf.NewReader(state)
	r.Header(kind, stateVersion)
	t, optCost, lastOpt := r.Int(), r.Float(), r.Ints()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: Algorithm %c state: %w", kind, err)
	}
	if t < 0 || (t == 0) != (lastOpt == nil) || lastOpt != nil && len(lastOpt) != len(p.fleet) {
		return fmt.Errorf("core: Algorithm %c state: %w", kind, statebuf.ErrMalformed)
	}
	for j := range p.fleet {
		if err := readType(r, j, t); err != nil {
			return err
		}
	}
	tracker := r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: Algorithm %c state: %w", kind, err)
	}
	if err := p.tracker.RestoreState(tracker); err != nil {
		return err
	}
	if t != p.tracker.T() {
		return fmt.Errorf("core: state covers %d slots, its tracker %d: %w", t, p.tracker.T(), statebuf.ErrMalformed)
	}
	if math.Float64bits(optCost) != math.Float64bits(p.tracker.Opt()) {
		return fmt.Errorf("core: state's prefix optimum costs %v, its tracker's %v: %w", optCost, p.tracker.Opt(), statebuf.ErrMalformed)
	}
	p.lastOpt = lastOpt
	return nil
}

// valid reports whether a restored machine is consistent: no power-up
// count is negative, and x is the number of servers powered up inside
// the window [t−t̄+1, t].
func (s *TypeA) valid() bool {
	live := 0
	for i, w := range s.w {
		switch {
		case w < 0:
			return false
		case i >= s.t-s.tbar: // slot i+1 is inside the window
			if w > s.x-live {
				return false
			}
			live += w
		}
	}
	return live == s.x
}

// valid reports whether a restored machine is consistent: x is the sum
// of the pending power-ups' counts, which are non-negative, at strictly
// increasing slots in [1, t].
func (s *TypeB) valid() bool {
	live, last := 0, 0
	for _, e := range s.events[s.head:] {
		if e.count < 0 || e.count > s.x-live || e.slot <= last || e.slot > s.t {
			return false
		}
		live, last = live+e.count, e.slot
	}
	return live == s.x
}

// AppendState implements Snapshotter. Each type's power-up history w is
// kept whole, so PowerUpHistory survives a restore too.
func (a *AlgorithmA) AppendState(dst []byte) []byte {
	dst = a.appendState(dst, stateKindA, a.types[0].t)
	for _, st := range a.types {
		dst = statebuf.AppendInt(dst, st.tbar)
		dst = statebuf.AppendInt(dst, st.x)
		dst = statebuf.AppendInts(dst, st.w)
	}
	return statebuf.AppendNested(dst, a.tracker.AppendState)
}

// RestoreState implements Snapshotter. On error the algorithm must be
// discarded.
func (a *AlgorithmA) RestoreState(state []byte) error {
	return a.restore(state, stateKindA, func(r *statebuf.Reader, j, t int) error {
		st := TypeA{tbar: r.Int(), t: t, x: r.Int(), w: r.Ints()}
		if r.Err() == nil && (st.tbar != a.types[j].tbar || len(st.w) != t || !st.valid()) {
			return fmt.Errorf("core: Algorithm A state does not fit type %d: %w", j, statebuf.ErrMalformed)
		}
		*a.types[j] = st
		return nil
	})
}

// AppendState implements Snapshotter. Only each type's unexpired
// power-ups are kept: the expired head of the FIFO never matters again.
func (b *AlgorithmB) AppendState(dst []byte) []byte {
	dst = b.appendState(dst, stateKindB, b.types[0].t)
	for _, st := range b.types {
		dst = statebuf.AppendFloat(dst, st.beta)
		dst = statebuf.AppendFloat(dst, st.lsum)
		dst = statebuf.AppendInt(dst, st.x)
		live := st.events[st.head:]
		dst = statebuf.AppendInt(dst, len(live))
		for _, e := range live {
			dst = statebuf.AppendInt(dst, e.slot)
			dst = statebuf.AppendInt(dst, e.count)
			dst = statebuf.AppendFloat(dst, e.lsum)
		}
	}
	return statebuf.AppendNested(dst, b.tracker.AppendState)
}

// RestoreState implements Snapshotter. On error the algorithm must be
// discarded.
func (b *AlgorithmB) RestoreState(state []byte) error {
	return b.restore(state, stateKindB, func(r *statebuf.Reader, j, t int) error {
		st := TypeB{beta: r.Float(), t: t, lsum: r.Float(), x: r.Int()}
		if r.Err() == nil && math.Float64bits(st.beta) != math.Float64bits(b.types[j].beta) {
			return fmt.Errorf("core: Algorithm B state does not fit type %d: %w", j, statebuf.ErrMalformed)
		}
		n := r.Int()
		if n < 0 || n > t {
			return fmt.Errorf("core: Algorithm B state has %d pending power-ups after %d slots: %w", n, t, statebuf.ErrMalformed)
		}
		if n > 0 {
			st.events = make([]eventB, n)
			for i := range st.events {
				st.events[i] = eventB{slot: r.Int(), count: r.Int(), lsum: r.Float()}
			}
		}
		if r.Err() == nil && !st.valid() {
			return fmt.Errorf("core: Algorithm B state's type %d power-ups do not add up: %w", j, statebuf.ErrMalformed)
		}
		*b.types[j] = st
		return nil
	})
}
