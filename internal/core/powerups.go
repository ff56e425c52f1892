package core

import "repro/internal/statebuf"

// powerUps is the machine Algorithms A and B share for one server type:
// the FIFO of pending power-ups, whose counts add up to the active
// servers x. Each algorithm pops expired power-ups from the front with
// its own test — A after t̄ slots, B once the idle cost since the
// power-up exceeds β — and tops up at the back. A clamp releases the
// newest first and drops the power-ups it empties, so every pending
// power-up counts at least one server: at most x <= m_j are pending.
type powerUps struct {
	t      int // slots processed
	x      int // active servers
	events []powerUp
	head   int // events[:head] have expired
}

// powerUp is count servers powered up at slot; mark is Algorithm B's
// idle-cost prefix sum L[slot].
type powerUp struct {
	slot, count int
	mark        float64
}

// pop powers down the earliest pending power-up.
func (q *powerUps) pop() {
	q.x -= q.events[q.head].count
	q.head++
}

// topUp powers up servers at slot t, marked mark, until at least xhat
// run, and returns the active count. It first drops the expired prefix
// once it is half the queue, so the queue holds O(live) power-ups
// however old the machine: amortised O(1) a slot.
func (q *powerUps) topUp(xhat int, mark float64) int {
	if q.head > len(q.events)/2 {
		q.events = q.events[:copy(q.events, q.events[q.head:])]
		q.head = 0
	}
	if up := xhat - q.x; up > 0 {
		q.events = append(q.events, powerUp{slot: q.t, count: up, mark: mark})
		q.x = xhat
	}
	return q.x
}

// Active returns the current number of active servers.
func (q *powerUps) Active() int { return q.x }

// ClampTo forcibly powers down servers so at most m stay active, newest
// power-ups first, dropping those it releases whole. It extends the
// paper's algorithms to the time-varying fleets of Section 4.3; the
// competitive analysis does not cover this case, but feasibility holds
// because prefix optima never exceed the available counts.
func (q *powerUps) ClampTo(m int) int {
	n := len(q.events)
	for n > q.head && q.x > m {
		e := &q.events[n-1]
		drop := min(e.count, q.x-m)
		e.count -= drop
		q.x -= drop
		if e.count > 0 {
			break
		}
		n--
	}
	q.events = q.events[:n]
	if q.x > m {
		// Servers older than any pending power-up cannot exist; guard
		// against inconsistent use.
		panic("core: ClampTo accounting mismatch")
	}
	return q.x
}

// valid reports whether a restored queue is consistent: x is the sum of
// the pending power-ups' counts, each at least 1, at strictly increasing
// slots in (after, t].
func (q *powerUps) valid(after int) bool {
	live, last := 0, max(after, 0)
	for _, e := range q.events[q.head:] {
		if e.count < 1 || e.count > q.x-live || e.slot <= last || e.slot > q.t {
			return false
		}
		live, last = live+e.count, e.slot
	}
	return live == q.x
}

// appendEvents appends x and the pending power-ups, each with its mark
// when marks is set. The expired head never matters again.
func (q *powerUps) appendEvents(dst []byte, marks bool) []byte {
	dst = statebuf.AppendInt(dst, q.x)
	live := q.events[q.head:]
	dst = statebuf.AppendInt(dst, len(live))
	for _, e := range live {
		dst = statebuf.AppendInt(dst, e.slot)
		dst = statebuf.AppendInt(dst, e.count)
		if marks {
			dst = statebuf.AppendFloat(dst, e.mark)
		}
	}
	return dst
}

// readEvents reads what appendEvents appended into a queue that has
// processed t slots, and reports whether it decoded and is valid with
// every power-up in (after, t].
func readEvents(r *statebuf.Reader, t, after int, marks bool) (powerUps, bool) {
	q := powerUps{t: t, x: r.Int()}
	n := r.Int()
	if r.Err() != nil || n < 0 || n > min(t, q.x) {
		return q, false
	}
	q.events = make([]powerUp, n)
	for i := range q.events {
		q.events[i] = powerUp{slot: r.Int(), count: r.Int()}
		if marks {
			q.events[i].mark = r.Float()
		}
	}
	return q, r.Err() == nil && q.valid(after)
}
