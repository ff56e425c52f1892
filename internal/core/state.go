package core

import (
	"fmt"
	"math"

	"repro/internal/statebuf"
)

// The state codecs of Algorithms A and B (core.Snapshotter). Each state
// holds the slot count, the prefix optimum of the last step with its
// cost, the d per-type power-down machines — each type's parameter and
// its pending power-ups — and the prefix tracker's DP state. No slot
// input is saved: a restore Seeks past them. Version 1 of A's state
// held each type's whole power-up history; it is no longer read, and a
// session holding one replays its log.
const (
	stateKindA    = 'A'
	stateVersionA = 2
	stateKindB    = 'B'
	stateVersionB = 1
)

// appendState appends the fields Algorithms A and B share, in front of
// the per-type machines: the slot count and the tracker's prefix optimum,
// its cost and configuration.
func (r *prefixRule) appendState(dst []byte, kind, version byte, t int) []byte {
	dst = statebuf.AppendHeader(dst, kind, version)
	dst = statebuf.AppendInt(dst, t)
	dst = statebuf.AppendFloat(dst, r.tracker.Opt())
	return statebuf.AppendInts(dst, r.lastOpt)
}

// restore loads a state appendState began: the shared fields, then each
// type's machine through readType, which reports whether it fits, then the tracker's nested state, which
// must cover the same slots and carry, bit for bit, the same
// prefix-optimum cost. lastOpt is nil exactly before the first slot and
// holds one count per fleet type after it.
func (p *prefixRule) restore(state []byte, kind, version byte, readType func(r *statebuf.Reader, j, t int) bool) error {
	r := statebuf.NewReader(state)
	r.Header(kind, version)
	t, optCost, lastOpt := r.Int(), r.Float(), r.Ints()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: Algorithm %c state: %w", kind, err)
	}
	if t < 0 || (t == 0) != (lastOpt == nil) || lastOpt != nil && len(lastOpt) != len(p.fleet) {
		return fmt.Errorf("core: Algorithm %c state: %w", kind, statebuf.ErrMalformed)
	}
	for j := range p.fleet {
		if !readType(r, j, t) {
			return fmt.Errorf("core: Algorithm %c state does not fit type %d: %w", kind, j, statebuf.ErrMalformed)
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

// AppendState implements Snapshotter.
func (a *AlgorithmA) AppendState(dst []byte) []byte {
	dst = a.appendState(dst, stateKindA, stateVersionA, a.types[0].t)
	for _, st := range a.types {
		dst = statebuf.AppendInt(dst, st.tbar)
		dst = st.appendEvents(dst, false)
	}
	return statebuf.AppendNested(dst, a.tracker.AppendState)
}

// RestoreState implements Snapshotter. On error the algorithm must be
// discarded.
func (a *AlgorithmA) RestoreState(state []byte) error {
	return a.restore(state, stateKindA, stateVersionA, func(r *statebuf.Reader, j, t int) bool {
		tbar := r.Int()
		q, ok := readEvents(r, t, t-tbar, false)
		ok = ok && tbar == a.types[j].tbar
		*a.types[j] = TypeA{powerUps: q, tbar: tbar}
		return ok
	})
}

// AppendState implements Snapshotter.
func (b *AlgorithmB) AppendState(dst []byte) []byte {
	dst = b.appendState(dst, stateKindB, stateVersionB, b.types[0].t)
	for _, st := range b.types {
		dst = statebuf.AppendFloat(dst, st.beta)
		dst = statebuf.AppendFloat(dst, st.lsum)
		dst = st.appendEvents(dst, true)
	}
	return statebuf.AppendNested(dst, b.tracker.AppendState)
}

// RestoreState implements Snapshotter. On error the algorithm must be
// discarded.
func (b *AlgorithmB) RestoreState(state []byte) error {
	return b.restore(state, stateKindB, stateVersionB, func(r *statebuf.Reader, j, t int) bool {
		beta, lsum := r.Float(), r.Float()
		q, ok := readEvents(r, t, 0, true)
		ok = ok && math.Float64bits(beta) == math.Float64bits(b.types[j].beta)
		*b.types[j] = TypeB{powerUps: q, beta: beta, lsum: lsum}
		return ok
	})
}
