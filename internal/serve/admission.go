package serve

import (
	"errors"
	"sync/atomic"
	"time"
)

// Admission control: the overload layer between the HTTP handlers and
// the session manager. Three independent gates run before any session
// work — a global token bucket (slots/sec across all sessions), a
// bounded in-flight budget (concurrent push requests), and a
// per-session token bucket checked once the session is held. All three
// are wait-free on the accept path (atomic loads and CAS, no locks, no
// allocations — TestAdmissionAllocs holds the accept path at exactly 0),
// so shedding stays far cheaper than serving:
// a denied request costs one small error allocation and touches no
// algorithm state.
//
// A denied request carries a computed Retry-After: for a rate-limit
// deny it is the exact time until the bucket accrues the charge; for
// an in-flight deny it is a fixed hint (the budget frees on the next
// request completion, which the bucket cannot predict). The HTTP layer
// surfaces it as a Retry-After header on the 429/503.

// Sentinel errors of the admission layer; http.go maps them onto
// status codes (429 and 503) and both carry a Retry-After.
var (
	ErrThrottled  = errors.New("serve: rate limit exceeded")
	ErrOverloaded = errors.New("serve: in-flight push budget exhausted")
)

// ErrDeadline is the push-deadline timeout (Options.PushDeadline or a
// canceled request context): the push fed nothing and is safe to
// retry. The HTTP layer maps it to 504.
var ErrDeadline = errors.New("serve: push deadline exceeded")

// retryAfterError decorates a shed error with the computed wait.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// RetryAfter extracts the computed retry hint from a shed error
// (ErrThrottled, ErrOverloaded). ok is false for errors that carry
// none.
func RetryAfter(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// overloadRetryAfter is the Retry-After hint on an in-flight-budget
// deny: the budget frees as soon as any in-flight push completes, so
// the hint is a coarse "come back shortly", not a computed wait.
const overloadRetryAfter = 100 * time.Millisecond

// tokenBucket is a wait-free token bucket over a virtual "zero time":
// the nanosecond at which the bucket last held zero tokens. Tokens
// available at now are (now-zero)/interval, capped at burst by
// clamping zero on read; taking n tokens advances zero by n*interval
// under CAS. A deny leaves the state untouched (no debt) and reports
// exactly how long until the charge would fit.
type tokenBucket struct {
	zero     atomic.Int64 // ns timestamp at which the bucket holds 0 tokens
	interval int64        // ns per token
	burst    int64        // token capacity
}

// newTokenBucket returns a full bucket refilling at rate tokens/sec
// with the given capacity; nil when rate <= 0 (unlimited).
func newTokenBucket(rate float64, burst int, now int64) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		// Default capacity: one second's worth of tokens, at least 1.
		burst = int(rate)
		if burst < 1 {
			burst = 1
		}
	}
	b := &tokenBucket{interval: int64(float64(time.Second) / rate), burst: int64(burst)}
	if b.interval < 1 {
		b.interval = 1
	}
	b.zero.Store(now - b.burst*b.interval) // start full
	return b
}

// take admits n tokens at time now (ns), or reports how long until
// they would fit. Charges larger than the capacity are clamped to it —
// an oversized batch drains the bucket fully rather than being
// undeliverable forever.
func (b *tokenBucket) take(now int64, n int64) (time.Duration, bool) {
	if n > b.burst {
		n = b.burst
	}
	charge := n * b.interval
	for {
		old := b.zero.Load()
		z := old
		if floor := now - b.burst*b.interval; z < floor {
			z = floor // cap accrual at burst
		}
		nz := z + charge
		if nz > now {
			return time.Duration(nz - now), false
		}
		if b.zero.CompareAndSwap(old, nz) {
			return 0, true
		}
	}
}

// admission is the Manager's gate state.
type admission struct {
	global       *tokenBucket // nil = unlimited
	maxInFlight  int64        // 0 = unlimited
	inFlight     atomic.Int64
	sessionRate  float64 // per-session bucket template; 0 = unlimited
	sessionBurst int
}

// admitPush runs the pre-acquire gates (global rate, in-flight budget)
// for a push of n slots, charging the id's counter stripe on a deny.
// On success the caller owes one releasePush.
func (m *Manager) admitPush(met *counterStripe, now time.Time, n int) error {
	if g := m.adm.global; g != nil {
		if d, ok := g.take(now.UnixNano(), int64(n)); !ok {
			met.shed.Add(1)
			return &retryAfterError{err: ErrThrottled, after: d}
		}
	}
	if mx := m.adm.maxInFlight; mx > 0 {
		if m.adm.inFlight.Add(1) > mx {
			m.adm.inFlight.Add(-1)
			met.shed.Add(1)
			return &retryAfterError{err: ErrOverloaded, after: overloadRetryAfter}
		}
	}
	return nil
}

// releasePush returns an admitted push's in-flight slot.
func (m *Manager) releasePush() {
	if m.adm.maxInFlight > 0 {
		m.adm.inFlight.Add(-1)
	}
}

// newSessionBucket builds one session's rate limiter (nil when
// per-session limiting is off). Eviction drops it with the rest of the
// resident state, so a resumed session restarts with a full bucket —
// the limit bounds sustained rates, not lifetime totals.
func (m *Manager) newSessionBucket() *tokenBucket {
	return newTokenBucket(m.adm.sessionRate, m.adm.sessionBurst, m.nowFn().UnixNano())
}

// admitSession runs the per-session gate; the caller holds ls.mu. It
// sits after acquire so the charge lands on the session that will be
// served — the global gates already shed the bulk of an overload
// before any registry or store work.
func (m *Manager) admitSession(ls *liveSession, met *counterStripe, now time.Time, n int) error {
	if ls.bucket == nil {
		return nil
	}
	if d, ok := ls.bucket.take(now.UnixNano(), int64(n)); !ok {
		met.shed.Add(1)
		return &retryAfterError{err: ErrThrottled, after: d}
	}
	return nil
}

// shedErr reports whether err is an admission deny (counted in
// PushesShed, never in PushErrors).
func shedErr(err error) bool {
	return errors.Is(err, ErrThrottled) || errors.Is(err, ErrOverloaded)
}
