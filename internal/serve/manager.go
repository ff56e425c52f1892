// Package serve multiplexes many live advisory sessions behind one
// long-running service: the serving layer over the streaming core
// (internal/stream) and the algorithm registry (internal/engine).
//
// A Manager owns a bounded set of named sessions. Pushes to one session
// are serialized by a per-session lock while different sessions proceed
// concurrently; the session registry is lock-striped across shards (hash
// of the session id), so Open/Push/Delete on distinct sessions contend
// on a shard lock only when their ids collide — never on a global lock.
// The shard count is a pure contention knob: any value produces
// bit-identical advisories (covered by a shard-invariance test). Idle
// sessions are evicted to a pluggable SnapshotStore in
// stream.Checkpoint's portable form, plus their saved algorithm state,
// and are transparently resumed by the next push — from the state when
// it fits the log, by replay otherwise. Callers cannot tell eviction
// happened except through the aggregate counters.
//
// With Options.WALDir set, every accepted slot is also logged before the
// algorithm steps, and a session's durable record is its snapshot plus
// the log's delta past it. A resume and startup recovery rebuild a
// session from that record through one path, and every save goes
// through one path too (see recover.go).
//
// Lock ordering: a shard lock may be taken first and a session lock
// second only without blocking (TryLock, or a freshly created session's
// lock); a session lock is never held while a shard lock is taken.
// That discipline makes the two-level scheme deadlock-free: slow
// algorithm steps on one session never stall the registry or other
// sessions. The cross-shard state — the live-session count against
// MaxSessions, the generated-id sequence, the closed flag and all
// metrics — is atomic, so no path takes two shard locks at once.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Sentinel errors; the HTTP layer maps them onto status codes.
var (
	ErrUnknownSession = errors.New("serve: unknown session")
	ErrSessionExists  = errors.New("serve: session id already in use")
	ErrSessionLimit   = errors.New("serve: live session limit reached")
	ErrSessionFailed  = errors.New("serve: session algorithm failed")
	ErrBadSlot        = errors.New("serve: slot rejected")
	ErrFleetTooLarge  = errors.New("serve: fleet lattice exceeds the cell budget")
	ErrBusy           = errors.New("serve: session is busy")
	ErrClosed         = errors.New("serve: manager is shut down")
	ErrStore          = errors.New("serve: snapshot store")
)

// Options tunes a Manager. The zero value serves with defaults: 256 live
// sessions, an in-memory snapshot store and one registry shard per CPU.
type Options struct {
	// MaxSessions bounds the live (in-memory) session set; <= 0 means 256.
	// Snapshotted sessions do not count: the bound is on resident
	// algorithm state, not on session identities.
	MaxSessions int
	// Store receives evicted sessions; nil means a fresh MemStore.
	Store SnapshotStore
	// Shards sets the number of lock stripes of the session registry,
	// rounded up to a power of two; <= 0 means GOMAXPROCS. Purely a
	// contention knob — behaviorally invisible.
	Shards int

	// GlobalRate admits at most this many slots/sec across all sessions
	// (a batch of n slots charges n); <= 0 means unlimited. Denied
	// pushes fail with ErrThrottled carrying a computed Retry-After.
	GlobalRate float64
	// GlobalBurst is the global bucket's capacity; <= 0 means one
	// second's worth of GlobalRate (at least 1).
	GlobalBurst int
	// SessionRate / SessionBurst are the per-session counterparts,
	// applied to every session independently.
	SessionRate  float64
	SessionBurst int
	// MaxInFlight bounds concurrent push requests (admission's
	// in-flight budget); <= 0 means unlimited. Beyond it pushes fail
	// with ErrOverloaded (HTTP 503 + Retry-After).
	MaxInFlight int

	// PushDeadline bounds one Push/PushBatch end to end — admission,
	// session-lock wait, a store resume, and the algorithm steps are
	// all under it; 0 means no deadline. A push that times out fed
	// nothing (the deadline is checked before the first slot, never
	// between slots of a locked batch) and fails with ErrDeadline, so
	// clients can always retry it.
	PushDeadline time.Duration

	// WALDir enables the per-session write-ahead log: every accepted
	// slot is appended (length- and CRC-framed) to <WALDir>/<id>.wal
	// before the algorithm steps, so a crash loses at most the appends
	// the sync policy had not yet made durable. A successful snapshot
	// save (eviction, checkpoint, drain) compacts the log. Empty
	// disables the WAL.
	WALDir string
	// WALSync is the append durability policy: wal.SyncAlways (the zero
	// value — every append fsynced before the push is acknowledged),
	// wal.SyncInterval (group fsync on a timer) or wal.SyncNever (page
	// cache only; durability against process death, not power loss).
	WALSync wal.SyncPolicy
	// WALSyncInterval is SyncInterval's cadence; <= 0 means the wal
	// package's default. Under SyncInterval the manager also sweeps idle
	// dirty logs on it (SyncWALs) until Close.
	WALSyncInterval time.Duration
	// WALOpenFile overrides how WAL files are opened — the fault
	// injection seam (see wal.FaultFS); nil means the real filesystem.
	WALOpenFile func(path string) (wal.File, error)

	// StreamBuffer is each advisory subscription's channel capacity —
	// the slack between the push path producing advisories and an SSE
	// consumer draining them. A subscriber that falls this far behind
	// is disconnected (end reason "lagged") rather than allowed to
	// block or slow pushes. <= 0 means 256.
	StreamBuffer int
	// StreamHeartbeat is the cadence of SSE keep-alive comments on an
	// otherwise idle stream, so proxies and clients can tell a quiet
	// session from a dead connection; <= 0 means 15s.
	StreamHeartbeat time.Duration
}

// OpenRequest describes a session to open. It doubles as the POST
// /v1/sessions wire format.
type OpenRequest struct {
	// ID optionally names the session (URL- and file-safe, <= 64 chars);
	// empty means the manager assigns one.
	ID string `json:"id,omitempty"`
	// Alg names the algorithm (registry lookup, spelling-tolerant). May be
	// empty when Checkpoint carries the algorithm.
	Alg string `json:"alg,omitempty"`
	// Fleet is the session's fleet template.
	Fleet FleetJSON `json:"fleet"`
	// Checkpoint, when non-nil, opens the session by replaying a
	// client-held checkpoint instead of starting fresh.
	Checkpoint *stream.Checkpoint `json:"checkpoint,omitempty"`
}

// PushRequest is one slot for a session. It doubles as the POST
// /v1/sessions/{id}/push wire format (alone, or as an element of a JSON
// array for batch pushes). The type lives in internal/wire so the
// hand-rolled codec and the manager share it; the alias keeps serve's
// API unchanged.
type PushRequest = wire.PushRequest

// PushResult is a push's outcome: Decided reports whether the slot
// unlocked an advisory (semi-online algorithms buffer their lookahead
// window first). Aliased from internal/wire like PushRequest.
type PushResult = wire.PushResult

// SessionInfo is a session's externally visible state.
type SessionInfo struct {
	ID      string  `json:"id"`
	Alg     string  `json:"alg"`  // registry key
	Name    string  `json:"name"` // algorithm display name
	Fed     int     `json:"fed"`
	Decided int     `json:"decided"`
	Pending int     `json:"pending,omitempty"`
	CumCost float64 `json:"cum_cost"`
	// Failed carries the session's sticky algorithm failure, if any.
	Failed string `json:"failed,omitempty"`
}

// CloseResult is a deleted session's final word: the advisories flushed
// by semi-online algorithms (empty for fully online ones and for
// snapshot-only deletions) and the closing state.
type CloseResult struct {
	Advisories []stream.Advisory `json:"advisories,omitempty"`
	Info       SessionInfo       `json:"info"`
}

// liveSession is one resident session. mu serializes all access to the
// session and doubles as the push queue; gone marks a session that was
// evicted or deleted after a waiter obtained the pointer — waiters
// re-acquire through the manager.
type liveSession struct {
	id     string
	alg    string // registry key
	fleet  FleetJSON
	bucket *tokenBucket // per-session admission; nil = unlimited

	mu       sync.Mutex
	sess     *stream.Session
	lastUsed time.Time
	gone     bool
	// span is the stored form of the session's log up to its LogBase,
	// kept as the bytes a resume read from the store (empty unless the
	// session was restored from its state alone); saves splice it in
	// front of the records fed since. Guarded by mu.
	span wire.LogSpan
	// wal is the session's write-ahead log (nil when disabled); guarded
	// by mu like the session, appended before every algorithm step and
	// compacted whenever a snapshot save succeeds.
	wal *wal.Log
	// subs are the session's live advisory subscriptions (see
	// subscribe.go); guarded by mu like the session itself, and always
	// emptied — every subscriber ended with a reason — before the
	// session goes away.
	subs []*Subscriber
}

// infoLocked snapshots the session's state; callers hold ls.mu (or own
// the session exclusively, as on the open path).
func (ls *liveSession) infoLocked() SessionInfo {
	info := SessionInfo{
		ID:      ls.id,
		Alg:     ls.alg,
		Name:    ls.sess.Name(),
		Fed:     ls.sess.Fed(),
		Decided: ls.sess.Decided(),
		Pending: ls.sess.Fed() - ls.sess.Decided(),
		CumCost: ls.sess.CumCost(),
	}
	if err := ls.sess.Err(); err != nil {
		info.Failed = err.Error()
	}
	return info
}

// shard is one lock stripe of the session registry. Padded to a cache
// line so neighbouring shards' locks do not false-share under write
// traffic.
type shard struct {
	mu   sync.Mutex
	live map[string]*liveSession
	_    [64 - 16]byte
}

// Manager multiplexes live advisory sessions. All methods are safe for
// concurrent use.
type Manager struct {
	opts    Options
	store   SnapshotStore
	nowFn   func() time.Time    // test hook
	sleepFn func(time.Duration) // test hook (store-retry backoff)
	adm     admission

	shards []shard
	mask   uint64 // len(shards)-1; len is a power of two

	// The cross-shard atomics are spaced so the rarely written closed
	// flag — read by every acquire — does not ride the cache line that
	// liveN write traffic (opens, evictions, deletes, resumes)
	// invalidates.
	liveN      atomic.Int64  // resident sessions across all shards (vs MaxSessions)
	seq        atomic.Uint64 // generated-id sequence
	streamSubs atomic.Int64  // live advisory subscriptions (gauge)
	_          [40]byte
	closed     atomic.Bool

	// flushStop ends the idle-log sweep under wal.SyncInterval (nil
	// otherwise), which closes flushDone as it returns.
	flushStop, flushDone chan struct{}

	// met is striped in lockstep with shards (see counterStripe).
	met counters
}

// NewManager prepares a session manager.
func NewManager(opts Options) *Manager {
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 256
	}
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = 1 << bits.Len(uint(n-1)) // round up to a power of two; 1 stays 1
	if opts.StreamBuffer <= 0 {
		opts.StreamBuffer = 256
	}
	if opts.StreamHeartbeat <= 0 {
		opts.StreamHeartbeat = 15 * time.Second
	}
	m := &Manager{
		opts:    opts,
		store:   opts.Store,
		nowFn:   time.Now,
		sleepFn: time.Sleep,
		shards:  make([]shard, n),
		mask:    uint64(n - 1),
		met:     newCounters(n),
	}
	m.adm = admission{
		global:       newTokenBucket(opts.GlobalRate, opts.GlobalBurst, m.nowFn().UnixNano()),
		maxInFlight:  int64(opts.MaxInFlight),
		sessionRate:  opts.SessionRate,
		sessionBurst: opts.SessionBurst,
	}
	for i := range m.shards {
		m.shards[i].live = map[string]*liveSession{}
	}
	if m.walEnabled() && opts.WALSync == wal.SyncInterval {
		m.flushStop, m.flushDone = make(chan struct{}), make(chan struct{})
		wo := m.walOptions()
		go m.sweepWALs(wo.Interval())
	}
	return m
}

// shardIdx hashes a session id onto its stripe index (FNV-1a); the
// registry shard and the counter stripe share the index.
func (m *Manager) shardIdx(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h & m.mask
}

// shardFor returns a session id's registry lock stripe.
func (m *Manager) shardFor(id string) *shard {
	return &m.shards[m.shardIdx(id)]
}

// stripeFor returns a session id's counter stripe.
func (m *Manager) stripeFor(id string) *counterStripe {
	return &m.met.stripes[m.shardIdx(id)]
}

// Open creates (or, with a checkpoint, replays) a session. The algorithm
// resolves through the registry and the fleet through the descriptor; the
// new session counts against MaxSessions immediately.
func (m *Manager) Open(req OpenRequest) (SessionInfo, error) {
	if req.ID != "" && !validID(req.ID) {
		return SessionInfo{}, fmt.Errorf("serve: invalid session id %q (want <= 64 chars of [a-zA-Z0-9._-], no leading dot)", req.ID)
	}
	// Reject cheaply before constructing anything: a full manager, a
	// taken id or a closed manager must not cost a checkpoint replay.
	// The same checks re-run under the shard lock before the insert.
	if err := m.openable(req.ID); err != nil {
		return SessionInfo{}, err
	}

	alg := req.Alg
	var snap *Snapshot // a client checkpoint carries no state: it replays
	if cp := req.Checkpoint; cp != nil {
		if alg != "" && !sameAlgorithm(alg, cp.Alg) {
			return SessionInfo{}, fmt.Errorf("serve: request algorithm %q conflicts with checkpoint algorithm %q", alg, cp.Alg)
		}
		alg = cp.Alg
		snap = &Snapshot{Checkpoint: cp}
	} else if alg == "" {
		return SessionInfo{}, fmt.Errorf("serve: open request names no algorithm")
	}
	ls := &liveSession{bucket: m.newSessionBucket()}
	if _, err := m.buildLocked(ls, alg, req.Fleet, snap); err != nil {
		return SessionInfo{}, err
	}
	// Hold the session lock across the insert so the WAL attaches before
	// any concurrent pusher can reach the session — otherwise a push
	// could race in unlogged. Safe against the lock-ordering discipline:
	// ls is unpublished until the insert, so no other goroutine can hold
	// or want ls.mu, and every shard-lock holder only TryLocks sessions.
	ls.mu.Lock()
	if err := m.insert(req.ID, ls); err != nil {
		ls.mu.Unlock()
		return SessionInfo{}, err
	}
	if _, err := m.attachWAL(ls, walFresh); err != nil {
		ls.gone = true
		ls.mu.Unlock()
		m.unlink(ls)
		return SessionInfo{}, fmt.Errorf("%w: wal: %v", ErrStore, err)
	}
	// A checkpoint-opened session already holds slots the WAL will never
	// see; persist them now so a crash recovers snapshot + WAL delta, not
	// a session missing its imported prefix. On failure the fresh log
	// goes too — left behind, the next start's RecoverWAL would rebuild
	// it into an empty session squatting on the id. It is removed while
	// the id is still linked, so a concurrent open of the same id cannot
	// have created a log of its own yet.
	if m.walEnabled() && req.Checkpoint != nil {
		if err := m.persistLocked(ls, true); err != nil {
			ls.gone = true
			ls.closeWALLocked()
			m.removeWAL(ls.id)
			ls.mu.Unlock()
			m.unlink(ls)
			return SessionInfo{}, fmt.Errorf("%w: %v", ErrStore, err)
		}
	}
	m.stripeFor(ls.id).opened.Add(1)
	info := ls.infoLocked()
	ls.mu.Unlock()
	return info, nil
}

// insert links a constructed session into the registry under the given
// id (or a generated one), enforcing id uniqueness and the live-session
// cap atomically with the link.
func (m *Manager) insert(id string, ls *liveSession) error {
	now := m.nowFn()
	for {
		generated := false
		if id == "" {
			id = fmt.Sprintf("s-%06d", m.seq.Add(1))
			generated = true
		}
		sh := m.shardFor(id)
		sh.mu.Lock()
		err := m.insertableLocked(sh, id)
		if err == nil {
			// Reserve a cap slot; release it if over.
			if m.liveN.Add(1) > int64(m.opts.MaxSessions) {
				n := m.liveN.Add(-1)
				err = fmt.Errorf("%w (%d live)", ErrSessionLimit, n)
			} else {
				ls.id = id
				ls.lastUsed = now
				sh.live[id] = ls
				m.stripeFor(id).live.Add(1)
			}
		}
		sh.mu.Unlock()
		if err != nil && generated && errors.Is(err, ErrSessionExists) {
			id = "" // lost a race for the generated id; draw the next one
			continue
		}
		return err
	}
}

// insertableLocked checks manager liveness and id freedom; the caller
// holds sh.mu, which makes the checks atomic with the insert.
func (m *Manager) insertableLocked(sh *shard, id string) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if _, live := sh.live[id]; live {
		return fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	if _, ok, err := m.mapCorrupt(id)(m.store.Load(id)); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	} else if ok {
		return fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	return nil
}

// openable is the cheap pre-construction screen of an open request:
// manager liveness, the id being free and the cap having room. Nothing
// is reserved — the insert re-checks under the shard lock.
func (m *Manager) openable(id string) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if id != "" {
		sh := m.shardFor(id)
		sh.mu.Lock()
		err := m.insertableLocked(sh, id)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if n := m.liveN.Load(); n >= int64(m.opts.MaxSessions) {
		return fmt.Errorf("%w (%d live)", ErrSessionLimit, n)
	}
	return nil
}

// unlink removes a session from its shard if it is still the linked one,
// releasing its cap slot exactly once.
func (m *Manager) unlink(ls *liveSession) {
	sh := m.shardFor(ls.id)
	sh.mu.Lock()
	if sh.live[ls.id] == ls {
		delete(sh.live, ls.id)
		m.liveN.Add(-1)
		m.stripeFor(ls.id).live.Add(-1)
	}
	sh.mu.Unlock()
}

// deadlineErr converts a context's end into the package's sentinel: a
// timed-out or canceled push answers ErrDeadline (the slot was never
// fed, so the caller can retry).
func deadlineErr(ctx context.Context) error {
	return fmt.Errorf("%w: %v", ErrDeadline, context.Cause(ctx))
}

// loadCtx is store.Load bounded by ctx: a ctx that has ended answers
// ErrDeadline without a load, and when ctx has a deadline the load runs
// on its own goroutine, so a wedged store turns into a clean ErrDeadline
// instead of an unbounded stall (the goroutine drains into a buffered
// channel whenever the store does return). Without a deadline the load
// runs on the caller's goroutine: a request's context can be canceled
// (its client gone) but never times out, and a goroutine per resume
// would cost more than the rare abandoned load it could cut short.
func (m *Manager) loadCtx(ctx context.Context, id string) (*Snapshot, bool, error) {
	if ctx.Err() != nil {
		return nil, false, deadlineErr(ctx)
	}
	if _, ok := ctx.Deadline(); !ok {
		return m.mapCorrupt(id)(m.store.Load(id))
	}
	type loadResult struct {
		snap *Snapshot
		ok   bool
		err  error
	}
	ch := make(chan loadResult, 1)
	go func() {
		snap, ok, err := m.store.Load(id)
		ch <- loadResult{snap, ok, err}
	}()
	select {
	case r := <-ch:
		return m.mapCorrupt(id)(r.snap, r.ok, r.err)
	case <-ctx.Done():
		return nil, false, deadlineErr(ctx)
	}
}

// mapCorrupt converts a quarantined-snapshot load (ErrSnapshotCorrupt)
// into a clean miss: the store already moved the file aside, so the id
// reads as unknown — a 404, not a wedged 5xx — and the event is counted
// once on the id's stripe.
func (m *Manager) mapCorrupt(id string) func(*Snapshot, bool, error) (*Snapshot, bool, error) {
	return func(snap *Snapshot, ok bool, err error) (*Snapshot, bool, error) {
		if err != nil && errors.Is(err, ErrSnapshotCorrupt) {
			m.stripeFor(id).snapCorrupt.Add(1)
			return nil, false, nil
		}
		return snap, ok, err
	}
}

// lockSessionCtx takes ls.mu, bounded by ctx. Without a deadline it is
// a plain Lock; with one it polls TryLock on a doubling timer (100µs
// up to 2ms), trading strict FIFO hand-off for interruptibility — a
// session wedged by a slow algorithm step turns into ErrDeadline for
// the waiters instead of an unbounded queue.
func lockSessionCtx(ctx context.Context, ls *liveSession) error {
	if ls.mu.TryLock() {
		return nil
	}
	if ctx.Done() == nil {
		ls.mu.Lock()
		return nil
	}
	wait := 100 * time.Microsecond
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return deadlineErr(ctx)
		case <-timer.C:
		}
		if ls.mu.TryLock() {
			return nil
		}
		if wait < 2*time.Millisecond {
			wait *= 2
		}
		timer.Reset(wait)
	}
}

// acquire returns the live session for id, transparently resuming it from
// the snapshot store when it was evicted. The returned session may be
// marked gone by a concurrent evict/delete between return and the
// caller's lock; callers loop on that. ctx bounds the store reads of a
// resume (the session-lock wait is bounded separately, in
// withSessionCtx).
func (m *Manager) acquire(ctx context.Context, id string) (*liveSession, error) {
	// Ids that could never have been opened are 404s before they reach
	// the store: a DirStore uses the id as a file name, so URL-supplied
	// ids like "../backup" must never get that far.
	if !validID(id) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	sh := m.shardFor(id)
	sh.mu.Lock()
	if m.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	if ls, ok := sh.live[id]; ok {
		sh.mu.Unlock()
		return ls, nil
	}
	// Reserve a cap slot for the resume.
	if m.liveN.Add(1) > int64(m.opts.MaxSessions) {
		m.liveN.Add(-1)
		sh.mu.Unlock()
		// Unknown ids must stay 404s even at the cap: only a session that
		// exists (snapshotted) and cannot be resumed is a capacity problem.
		if _, ok, err := m.loadCtx(ctx, id); err != nil {
			return nil, storeErr(err)
		} else if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
		}
		return nil, fmt.Errorf("%w (%d live; cannot resume %q)", ErrSessionLimit, m.opts.MaxSessions, id)
	}
	// Reserve the id with a placeholder whose lock is held for the whole
	// resume: concurrent pushers queue on it instead of racing a second
	// replay of the same log.
	ls := &liveSession{id: id}
	ls.mu.Lock()
	sh.live[id] = ls
	m.stripeFor(id).live.Add(1)
	sh.mu.Unlock()

	// Rebuild from the snapshot plus the log's delta past it — slots
	// acknowledged after the last save — exactly as recovery would.
	snap, ok, err := m.loadCtx(ctx, id)
	if err != nil {
		err = storeErr(err)
	} else if !ok {
		err = fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	var r rebuilt
	if err == nil {
		r, err = m.rebuildLocked(ls, snap, walResume)
	}
	if err == nil && r.gapped {
		// The gapped log was quarantined; the session goes on with a new one.
		if _, werr := m.attachWAL(ls, walFresh); werr != nil {
			err = fmt.Errorf("%w: wal: %v", ErrStore, werr)
		}
	}
	if err != nil {
		ls.gone = true
		ls.mu.Unlock()
		m.unlink(ls)
		return nil, err
	}
	ls.bucket = m.newSessionBucket()
	ls.lastUsed = m.nowFn()
	ls.mu.Unlock()
	met := m.stripeFor(id)
	met.resumed.Add(1)
	met.resumeReplayed.Add(uint64(r.replayed))
	return ls, nil
}

// storeErr wraps a store failure in ErrStore — except a deadline that
// fired during the store call, which stays ErrDeadline (the caller's
// timeout, not the store's fault; it must keep its 504 and its
// safe-to-retry meaning).
func storeErr(err error) error {
	if errors.Is(err, ErrDeadline) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrStore, err)
}

// withSession runs fn with the session's lock held, transparently
// resuming evicted sessions and re-acquiring when a concurrent
// evict/delete marked the pointer gone between acquire and lock.
func (m *Manager) withSession(id string, fn func(ls *liveSession)) error {
	return m.withSessionCtx(context.Background(), id, fn)
}

// withSessionCtx is withSession bounded by ctx: the resume's store
// reads and the session-lock wait both end in ErrDeadline when ctx
// does. fn itself is never interrupted — once the lock is held the
// work runs to completion, so a timeout can only land before any state
// changed.
func (m *Manager) withSessionCtx(ctx context.Context, id string, fn func(ls *liveSession)) error {
	for {
		ls, err := m.acquire(ctx, id)
		if err != nil {
			return err
		}
		if err := lockSessionCtx(ctx, ls); err != nil {
			return err
		}
		if ls.gone {
			ls.mu.Unlock()
			continue
		}
		fn(ls)
		ls.mu.Unlock()
		return nil
	}
}

// pushContext applies the configured push deadline on top of the
// caller's context; the second return is nil when there is nothing to
// cancel (no deadline configured).
func (m *Manager) pushContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.opts.PushDeadline <= 0 {
		return ctx, nil
	}
	return context.WithTimeout(ctx, m.opts.PushDeadline)
}

// pushLocked feeds one slot to a held session, classifying the error.
// With a WAL attached the slot is appended (and made as durable as the
// sync policy promises) before the algorithm sees it: an append or sync
// failure fails the push with nothing fed, and the frame was rolled back
// — a retry appends the same slot index afresh, so replay never sees a
// failed push's payload shadowing an acknowledged one. If the rollback
// itself could not truncate, the log is sticky-broken and every later
// push fails rather than risking an inconsistent tail. A slot the
// session refuses (validation) is refused before the append, so it
// writes nothing; replay still skips such orphans in logs written by
// earlier versions, which appended first.
func (m *Manager) pushLocked(ls *liveSession, met *counterStripe, req PushRequest, res *PushResult) error {
	in := model.SlotInput{Lambda: req.Lambda, Counts: req.Counts}
	if ls.wal != nil && ls.sess.Err() == nil {
		if err := ls.sess.Check(in); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSlot, err)
		}
		synced, werr := ls.wal.Append(model.SlotInput{T: ls.sess.Fed() + 1, Lambda: req.Lambda, Counts: req.Counts})
		if werr != nil {
			return fmt.Errorf("%w: wal: %v", ErrStore, werr)
		}
		met.walAppends.Add(1)
		if synced {
			met.walFsyncs.Add(1)
		}
	}
	adv := &stream.Advisory{}
	decided, perr := ls.sess.Push(in, adv)
	if perr != nil {
		if ls.sess.Err() != nil {
			return fmt.Errorf("%w: %v", ErrSessionFailed, perr)
		}
		return fmt.Errorf("%w: %v", ErrBadSlot, perr)
	}
	res.Decided = decided
	if decided {
		res.Advisory = adv
		m.publishLocked(ls, adv)
	}
	return nil
}

// Push feeds one slot to the session, resuming it from the store first if
// it was evicted. Pushes to the same session are serialized in arrival
// order; pushes to different sessions run concurrently.
func (m *Manager) Push(id string, req PushRequest) (PushResult, error) {
	return m.PushCtx(context.Background(), id, req)
}

// PushCtx is Push under a caller context plus the configured
// Options.PushDeadline: admission (global rate, in-flight budget,
// per-session rate) runs first and sheds with ErrThrottled /
// ErrOverloaded carrying a Retry-After; past admission, the lock wait
// and any store resume are bounded and time out with ErrDeadline
// having fed nothing. It is PushBatchCtx of one slot.
func (m *Manager) PushCtx(ctx context.Context, id string, req PushRequest) (PushResult, error) {
	var out [1]PushResult
	res, err := m.push(ctx, id, []PushRequest{req}, out[:0])
	if err != nil {
		return PushResult{}, err
	}
	return res[0], nil
}

// countPushErr files a failed push under the right counter: admission
// denies were already counted as shed, deadlines count as timeouts,
// everything else is a push error.
func (m *Manager) countPushErr(met *counterStripe, err error) error {
	switch {
	case shedErr(err):
		// already counted by admitPush/admitSession
	case errors.Is(err, ErrDeadline):
		met.timeout.Add(1)
	default:
		met.pushErr.Add(1)
	}
	return err
}

// PushBatch feeds a run of slots to the session under one acquire and
// one session-lock hold, with one latency observation for the whole
// batch — the amortized counterpart of repeated Push calls with
// identical per-slot semantics. On a per-slot error the results of the
// slots committed before it are returned alongside the error; the
// failing slot and everything after it are not fed (exactly as if the
// same slots had been pushed one by one). An empty batch feeds nothing
// but still validates the session — unknown ids and a closed manager
// answer the same errors any push would.
func (m *Manager) PushBatch(id string, reqs []PushRequest) ([]PushResult, error) {
	return m.PushBatchCtx(context.Background(), id, reqs)
}

// PushBatchCtx is PushBatch under a caller context plus the configured
// Options.PushDeadline. A batch of n slots charges n admission tokens
// but occupies one in-flight slot. The deadline is checked before the
// first slot only: once feeding starts the batch runs to completion,
// so an ErrDeadline always means nothing was committed and the whole
// batch is safe to retry.
func (m *Manager) PushBatchCtx(ctx context.Context, id string, reqs []PushRequest) ([]PushResult, error) {
	return m.push(ctx, id, reqs, nil)
}

// push is PushBatchCtx appending the results to out, which is allocated
// once admission passes when nil.
func (m *Manager) push(ctx context.Context, id string, reqs []PushRequest, out []PushResult) ([]PushResult, error) {
	start := m.nowFn()
	met := m.stripeFor(id)
	if err := m.admitPush(met, start, len(reqs)); err != nil {
		return nil, err
	}
	defer m.releasePush()
	ctx, cancel := m.pushContext(ctx)
	if cancel != nil {
		defer cancel()
	}
	if out == nil {
		out = make([]PushResult, 0, len(reqs))
	}
	var perr error
	err := m.withSessionCtx(ctx, id, func(ls *liveSession) {
		now := m.nowFn()
		if perr = m.admitSession(ls, met, now, len(reqs)); perr != nil {
			return
		}
		if ctx.Err() != nil {
			// The deadline passed while waiting for the lock; nothing
			// has been fed, so answer the clean timeout.
			perr = deadlineErr(ctx)
			return
		}
		for i := range reqs {
			var res PushResult
			if perr = m.pushLocked(ls, met, reqs[i], &res); perr != nil {
				break
			}
			out = append(out, res)
		}
		ls.lastUsed = m.nowFn()
	})
	if err != nil {
		return nil, m.countPushErr(met, err)
	}
	met.pushes.Add(uint64(len(out)))
	if perr != nil {
		return out, m.countPushErr(met, perr)
	}
	if len(reqs) > 0 {
		met.observe(m.nowFn().Sub(start))
	}
	return out, nil
}

// Info reports a session's state, transparently resuming it if evicted.
func (m *Manager) Info(id string) (SessionInfo, error) {
	var info SessionInfo
	err := m.withSession(id, func(ls *liveSession) {
		info = ls.infoLocked()
	})
	if err != nil {
		return SessionInfo{}, err
	}
	return info, nil
}

// Checkpoint snapshots the session's replay log and state, persists
// them to the store and returns the snapshot without the store-internal
// state. The session stays live. The save runs under the
// session lock, like eviction's: all store writes for a live session are
// serialized, so a slow checkpoint save can never land after (and
// clobber) a newer eviction snapshot — the chaos suite's torn-write
// injection turns that interleaving into silently lost slots. The save
// is not retried: the client asked for exactly one write and owns the
// retry decision.
func (m *Manager) Checkpoint(id string) (*Snapshot, error) {
	var out *Snapshot
	var serr, lerr error
	err := m.withSession(id, func(ls *liveSession) {
		if serr = m.persistLocked(ls, false); serr != nil {
			return
		}
		var cp *stream.Checkpoint
		if cp, lerr = ls.portableLocked(); lerr == nil {
			out = &Snapshot{ID: ls.id, Fleet: ls.fleet, Checkpoint: cp}
		}
	})
	switch {
	case err != nil:
		return nil, err
	case serr != nil:
		return nil, fmt.Errorf("%w: %v", ErrStore, serr)
	case lerr != nil:
		return nil, fmt.Errorf("serve: checkpoint %s: %v", id, lerr)
	}
	return out, nil
}

// portableLocked returns the session's whole replay log as records,
// detached from the live session: its stored span decoded, then the
// records fed since.
func (ls *liveSession) portableLocked() (*stream.Checkpoint, error) {
	head, err := wire.DecodeLog(append(slices.Clip(ls.span.Bytes), ']'))
	if err != nil {
		return nil, err
	}
	tail := ls.sess.LogTail()
	slots := append(head.Records(), tail.Records()...)
	if len(slots) == 0 {
		slots = nil
	}
	return &stream.Checkpoint{Alg: ls.sess.Alg(), Slots: slots}, nil
}

// Delete ends a session: a live one is closed (semi-online algorithms
// flush their buffered advisories), and its snapshot — live or not — is
// removed from the store. The id becomes unknown afterwards.
func (m *Manager) Delete(id string) (*CloseResult, error) {
	if !validID(id) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	sh := m.shardFor(id)
	for {
		sh.mu.Lock()
		ls, live := sh.live[id]
		sh.mu.Unlock()
		if !live {
			return m.deleteSnapshot(id)
		}
		ls.mu.Lock()
		if ls.gone {
			ls.mu.Unlock()
			continue
		}
		advs, cerr := ls.sess.Close()
		// Subscribers get the flushed semi-online tail — the same
		// advisories the delete response carries — before the stream ends.
		for i := range advs {
			m.publishLocked(ls, &advs[i])
		}
		info := ls.infoLocked()
		ls.gone = true
		ls.closeWALLocked()
		m.closeSubsLocked(ls, StreamEndDeleted)
		ls.mu.Unlock()

		m.unlink(ls)
		if err := m.store.Delete(id); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
		m.removeWAL(id)
		m.stripeFor(id).deleted.Add(1)
		if cerr != nil {
			return nil, fmt.Errorf("%w: %v", ErrSessionFailed, cerr)
		}
		return &CloseResult{Advisories: advs, Info: info}, nil
	}
}

// deleteSnapshot removes an evicted session without replaying it; a
// semi-online tail (if any) is discarded with it.
func (m *Manager) deleteSnapshot(id string) (*CloseResult, error) {
	snap, ok, err := m.mapCorrupt(id)(m.store.Load(id))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	fed, err := snap.fed()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	if err := m.store.Delete(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.removeWAL(id)
	m.stripeFor(id).deleted.Add(1)
	return &CloseResult{Info: SessionInfo{ID: id, Alg: snap.alg(), Fed: fed}}, nil
}

// The store-save retry policy of saveWithRetry.
const (
	storeRetries    = 3
	storeBackoff    = 5 * time.Millisecond
	storeBackoffCap = 80 * time.Millisecond
)

// persistLocked is the one path that saves a session: snapshot its
// replay log and saved state, save the snapshot, and once the save
// succeeded compact the session's log, which the snapshot now covers;
// the caller holds ls.mu. Every save but Checkpoint's retries
// (saveWithRetry): a flaky store should cost latency, not sessions. A
// checkpoint saves once, because the client asked for exactly one write
// and owns the retry decision.
//
// The snapshot holds its log as stored bytes: the span the session
// resumed from, shared rather than copied, and the records fed since,
// encoded here; the log sum is the span's extended over them and sealed
// to the state, so a save costs nothing per slot of the span.
func (m *Manager) persistLocked(ls *liveSession, retry bool) error {
	tail := ls.sess.LogTail()
	enc, err := wire.AppendLog(make([]byte, 0, wire.LogLen(&tail)), &tail, len(ls.span.Bytes) > 1)
	if err != nil {
		return err
	}
	snap := &Snapshot{ID: ls.id, Fleet: ls.fleet, State: ls.sess.AppendState(nil),
		log: &storedLog{alg: ls.sess.Alg(), span: ls.span, tail: enc}}
	if len(snap.State) > 0 {
		snap.LogSum = ls.span.Seal(enc, snap.State)
	}
	if retry {
		err = m.saveWithRetry(snap)
	} else {
		err = m.store.Save(snap)
	}
	if err != nil {
		return err
	}
	ls.compactWALLocked()
	return nil
}

// saveWithRetry writes snap to the store, retrying transient failures
// with capped exponential backoff (storeRetries, storeBackoff,
// storeBackoffCap). Each retry bumps the id's StoreRetries counter.
func (m *Manager) saveWithRetry(snap *Snapshot) error {
	err := m.store.Save(snap)
	if err == nil {
		return nil
	}
	backoff := storeBackoff
	for attempt := 0; attempt < storeRetries; attempt++ {
		m.stripeFor(snap.ID).retries.Add(1)
		m.sleepFn(backoff)
		if backoff *= 2; backoff > storeBackoffCap {
			backoff = storeBackoffCap
		}
		if err = m.store.Save(snap); err == nil {
			return nil
		}
	}
	return err
}

// evictHoldingBoth completes an eviction of a session the caller holds
// both sh.mu and ls.mu on (ls.mu via TryLock). It releases sh.mu before
// the store write — the write runs under ls.mu alone, serialized against
// pushes to this session but never stalling the registry or other
// sessions — then marks the session gone and unlinks it. Both locks are
// released on return. A failed save (after retries) leaves the session
// live and untouched: the checkpoint may be stale or torn in the store,
// but the resident session still shadows it and the next eviction
// attempt overwrites it.
func (m *Manager) evictHoldingBoth(sh *shard, ls *liveSession) error {
	sh.mu.Unlock()
	err := m.persistLocked(ls, true)
	if err == nil {
		ls.gone = true
		ls.closeWALLocked()
		m.closeSubsLocked(ls, StreamEndEvicted)
	}
	ls.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.unlink(ls)
	m.stripeFor(ls.id).evicted.Add(1)
	return nil
}

// evictable reports whether a session the caller holds ls.mu on may be
// checkpoint-evicted. Sessions with a sticky algorithm failure are not:
// their checkpoint only replays the good prefix, so an eviction would
// silently erase the failure state a client just observed — they stay
// resident until deleted.
func (ls *liveSession) evictable() bool {
	return !ls.gone && ls.sess != nil && ls.sess.Err() == nil
}

// Evict checkpoints one live session to the store and releases its
// resident state; the next push resumes it transparently. A session
// mid-push is not evictable (ErrBusy), and neither is a failed one
// (ErrSessionFailed) — delete those instead.
func (m *Manager) Evict(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	ls, ok := sh.live[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if !ls.mu.TryLock() {
		sh.mu.Unlock()
		return ErrBusy
	}
	if !ls.evictable() {
		failed := ls.sess != nil && ls.sess.Err() != nil
		ls.mu.Unlock()
		sh.mu.Unlock()
		if failed {
			return fmt.Errorf("%w: evicting would drop the failure state; delete the session instead", ErrSessionFailed)
		}
		return ErrBusy
	}
	return m.evictHoldingBoth(sh, ls) // releases both locks
}

// EvictIdle evicts every live session whose last activity is at least
// olderThan ago and that is not mid-push or failed, returning how many
// went. The daemon's janitor calls this periodically, walking the shards
// one at a time; EvictIdle(0) empties the manager of idle healthy
// sessions.
func (m *Manager) EvictIdle(olderThan time.Duration) (int, error) {
	cutoff := m.nowFn().Add(-olderThan)

	evicted := 0
	var firstErr error
	var cands []*liveSession
	for i := range m.shards {
		sh := &m.shards[i]

		// Collect candidates under the shard lock, then evict one by one,
		// re-validating each: the store writes must not run under sh.mu.
		sh.mu.Lock()
		cands = cands[:0]
		for _, ls := range sh.live {
			if !ls.mu.TryLock() {
				continue // mid-push: by definition not idle
			}
			if ls.evictable() && !ls.lastUsed.After(cutoff) {
				cands = append(cands, ls)
			}
			ls.mu.Unlock()
		}
		sh.mu.Unlock()

		for _, ls := range cands {
			sh.mu.Lock()
			if sh.live[ls.id] != ls {
				sh.mu.Unlock()
				continue // deleted or already evicted since collection
			}
			if !ls.mu.TryLock() {
				sh.mu.Unlock()
				continue
			}
			if !ls.evictable() || ls.lastUsed.After(cutoff) {
				ls.mu.Unlock()
				sh.mu.Unlock()
				continue // touched since collection
			}
			if err := m.evictHoldingBoth(sh, ls); err != nil { // releases both locks
				if firstErr == nil {
					firstErr = err
				}
			} else {
				evicted++
			}
		}
	}
	return evicted, firstErr
}

// Sessions lists the live session ids (sorted by the caller if needed);
// snapshotted sessions are not enumerated — stores are keyed, not
// scanned.
func (m *Manager) Sessions() []SessionInfo {
	var live []*liveSession
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, ls := range sh.live {
			live = append(live, ls)
		}
		sh.mu.Unlock()
	}
	out := make([]SessionInfo, 0, len(live))
	for _, ls := range live {
		ls.mu.Lock()
		if !ls.gone && ls.sess != nil {
			out = append(out, ls.infoLocked())
		}
		ls.mu.Unlock()
	}
	return out
}

// Metrics snapshots the aggregate counters, merging per-shard state (the
// live count is the cross-shard resident total, placeholders included).
func (m *Manager) Metrics() Metrics {
	return m.met.snapshot(int(m.liveN.Load()))
}

// Close shuts the manager down: new requests fail with ErrClosed,
// in-flight pushes finish, and every live session is checkpointed to the
// store (so a durable store resumes them after a restart).
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if m.flushStop != nil {
		close(m.flushStop)
		<-m.flushDone
	}
	var firstErr error
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		live := make([]*liveSession, 0, len(sh.live))
		for _, ls := range sh.live {
			live = append(live, ls)
		}
		sh.mu.Unlock()

		for _, ls := range live {
			ls.mu.Lock() // blocks until any in-flight push completes
			if !ls.gone && ls.sess != nil {
				if err := m.persistLocked(ls, true); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%w: %v", ErrStore, err)
				}
				ls.gone = true
			}
			ls.closeWALLocked()
			m.closeSubsLocked(ls, StreamEndDrain)
			ls.mu.Unlock()
			m.unlink(ls)
		}
	}
	return firstErr
}

// sameAlgorithm reports whether two spellings resolve to the same
// registry entry.
func sameAlgorithm(a, b string) bool {
	sa, oka := engine.LookupAlgorithm(a)
	sb, okb := engine.LookupAlgorithm(b)
	return oka && okb && sa.Key == sb.Key
}
