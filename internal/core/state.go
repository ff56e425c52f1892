package core

import (
	"fmt"
	"math"

	"repro/internal/model"
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

// appendAlgState appends the fields Algorithms A and B share, in front
// of the per-type machines.
func appendAlgState(dst []byte, kind byte, t int, optCost float64, lastOpt model.Config) []byte {
	dst = statebuf.AppendHeader(dst, kind, stateVersion)
	dst = statebuf.AppendInt(dst, t)
	dst = statebuf.AppendFloat(dst, optCost)
	return statebuf.AppendInts(dst, lastOpt)
}

// readAlgState reads what appendAlgState wrote. lastOpt is nil exactly
// before the first slot and holds one count per fleet type after it.
func readAlgState(r *statebuf.Reader, kind byte, d int) (t int, optCost float64, lastOpt model.Config, err error) {
	r.Header(kind, stateVersion)
	t = r.Int()
	optCost = r.Float()
	lastOpt = r.Ints()
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	if t < 0 || (t == 0) != (lastOpt == nil) || lastOpt != nil && len(lastOpt) != d {
		return 0, 0, nil, statebuf.ErrMalformed
	}
	return t, optCost, lastOpt, nil
}

// checkSlots verifies that a restored state covers exactly the slots its
// tracker was positioned past and restored with.
func checkSlots(t, tracked int) error {
	if t != tracked {
		return fmt.Errorf("core: state covers %d slots, its tracker %d: %w", t, tracked, statebuf.ErrMalformed)
	}
	return nil
}

// AppendState implements Snapshotter. Each type's power-up history w is
// kept whole, so PowerUpHistory survives a restore too.
func (a *AlgorithmA) AppendState(dst []byte) []byte {
	dst = appendAlgState(dst, stateKindA, a.types[0].t, a.optCost, a.lastOpt)
	for _, st := range a.types {
		dst = statebuf.AppendInt(dst, st.tbar)
		dst = statebuf.AppendInt(dst, st.x)
		dst = statebuf.AppendInts(dst, st.w)
	}
	return statebuf.AppendNested(dst, a.tracker.AppendState)
}

// Seek implements Snapshotter.
func (a *AlgorithmA) Seek(t int) { a.tracker.Seek(t) }

// RestoreState implements Snapshotter. On error the algorithm must be
// discarded.
func (a *AlgorithmA) RestoreState(state []byte) error {
	r := statebuf.NewReader(state)
	t, optCost, lastOpt, err := readAlgState(r, stateKindA, len(a.types))
	if err != nil {
		return fmt.Errorf("core: Algorithm A state: %w", err)
	}
	types := make([]TypeA, len(a.types))
	for j := range types {
		types[j] = TypeA{tbar: r.Int(), t: t, x: r.Int(), w: r.Ints()}
		if r.Err() == nil && (types[j].tbar != a.types[j].tbar || len(types[j].w) != t) {
			return fmt.Errorf("core: Algorithm A state does not fit type %d: %w", j, statebuf.ErrMalformed)
		}
	}
	tracker := r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: Algorithm A state: %w", err)
	}
	if err := a.tracker.RestoreState(tracker); err != nil {
		return err
	}
	if err := checkSlots(t, a.tracker.T()); err != nil {
		return err
	}
	for j := range types {
		*a.types[j] = types[j]
	}
	a.optCost, a.lastOpt = optCost, lastOpt
	return nil
}

// AppendState implements Snapshotter. Only each type's unexpired
// power-ups are kept: the expired head of the FIFO never matters again.
func (b *AlgorithmB) AppendState(dst []byte) []byte {
	dst = appendAlgState(dst, stateKindB, b.types[0].t, b.optCost, b.lastOpt)
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

// Seek implements Snapshotter.
func (b *AlgorithmB) Seek(t int) { b.tracker.Seek(t) }

// RestoreState implements Snapshotter. On error the algorithm must be
// discarded.
func (b *AlgorithmB) RestoreState(state []byte) error {
	r := statebuf.NewReader(state)
	t, optCost, lastOpt, err := readAlgState(r, stateKindB, len(b.types))
	if err != nil {
		return fmt.Errorf("core: Algorithm B state: %w", err)
	}
	types := make([]TypeB, len(b.types))
	for j := range types {
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
		types[j] = st
	}
	tracker := r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: Algorithm B state: %w", err)
	}
	if err := b.tracker.RestoreState(tracker); err != nil {
		return err
	}
	if err := checkSlots(t, b.tracker.T()); err != nil {
		return err
	}
	for j := range types {
		*b.types[j] = types[j]
	}
	b.optCost, b.lastOpt = optCost, lastOpt
	return nil
}
