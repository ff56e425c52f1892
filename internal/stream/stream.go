// Package stream manages live advisory sessions: a Session wraps any
// push-based online algorithm (core.Online), validates and feeds it slot
// data as it arrives, and reports per-slot advisories — the configuration
// to run plus running cost and competitive-ratio telemetry against the
// streaming prefix optimum. Batch replay (core.Run) and live serving share
// the same algorithm code path, so a session's summed advisory cost equals
// the batch schedule cost bit-for-bit.
//
// The telemetry comes from one prefix-optimum tracker: the algorithm's
// own (core.Tracked) when it is exact and the algorithm decides each
// slot as it is fed, else one the session runs. Each decided slot's
// operating cost is read from that tracker's DP layer, else from the
// algorithm's tracker's, and solved only when neither holds the decided
// configuration.
//
// Sessions are checkpointable: the fed inputs form a deterministic replay
// log, so Checkpoint captures everything needed to rebuild an identical
// session (event-sourcing style) and Resume replays it into a fresh
// algorithm instance. Deterministic algorithms — all of the library's —
// continue bit-identically after a resume.
//
// Replay steps every logged slot through the algorithm and its
// prefix-optimum tracker again, so its cost grows with the log. When the
// algorithm has a state codec (core.Snapshotter: Algorithms A and B),
// AppendState also saves the session's decision state — the algorithm's
// per-type machines, the tracker's last DP layer and the running sums.
// A caller that keeps the log itself, and can prove the state belongs
// to it (the serving layer seals both with one checksum), restores from
// the state alone (RestoreFromState): the session then holds only the
// slots fed after the restore, and LogBase counts the ones before.
// Without a state, or when it does not restore, the log replays.
//
// Apart from the replay log, a session's memory does not grow with the
// stream: the session and its algorithm's tracker keep only the slot
// they are evaluating, plus, for a semi-online (core.Buffered)
// algorithm, the slots fed but not yet decided. Algorithms A and B keep
// only their pending power-ups, at most m_j per server type, and save
// no more than those in their state. The log itself is kept
// in columns (Log): 8 bytes a slot for a stream of demands alone, in an
// array the garbage collector does not scan. A counts column, and a
// cost-function column, is kept only once some slot carries counts or
// cost functions.
package stream

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/solver"
	"repro/internal/statebuf"
)

// Options tunes a session. The zero value enables full telemetry.
type Options struct {
	// DisableOpt turns off the session's Opt/Ratio telemetry entirely:
	// the session runs no prefix-optimum tracker of its own and reads no
	// prefix optimum from the algorithm's (see core.Tracked).
	DisableOpt bool
	// Alg overrides the algorithm identifier recorded in checkpoints
	// (defaults to the algorithm's display name). Registry-based openers
	// set it to the registry key so Resume can re-resolve the algorithm.
	Alg string
}

// Advisory is one slot's decision plus telemetry. Fields with omitempty
// are absent when the session's optimum tracker is disabled.
type Advisory struct {
	// Slot is the 1-based slot the advisory decides.
	Slot int `json:"slot"`
	// Lambda echoes the slot's demand.
	Lambda float64 `json:"lambda"`
	// Config is the configuration to run during the slot (one count per
	// server type). It is a fresh copy owned by the caller.
	Config model.Config `json:"config"`
	// Active is the total number of active servers.
	Active int `json:"active"`
	// Operating and Switching are the slot's cost components; CumCost is
	// the compensated running total over all decided slots.
	Operating float64 `json:"operating"`
	Switching float64 `json:"switching"`
	CumCost   float64 `json:"cum_cost"`
	// Opt is the optimal cost of serving the decided prefix in hindsight;
	// Ratio is CumCost/Opt, the running competitive ratio.
	Opt   float64 `json:"opt,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`
	// Pending counts slots ingested but not yet decided (only semi-online
	// algorithms with lookahead lag; 0 for fully online algorithms).
	Pending int `json:"pending,omitempty"`
}

// SlotRecord is one entry of a session's replay log: the raw fed input
// (a session holds its records in columns, see Log).
// Explicit per-slot cost functions are retained in memory for in-process
// resume but are not JSON-portable; demand/counts streams (the CLI case,
// costs resolved from the fleet template) round-trip losslessly.
type SlotRecord struct {
	Lambda float64       `json:"lambda"`
	Counts []int         `json:"counts,omitempty"`
	Costs  []costfn.Func `json:"-"`
}

// clone copies the record's slices, so the caller's buffers stay its own.
func (r SlotRecord) clone() SlotRecord {
	if r.Counts != nil {
		r.Counts = append([]int(nil), r.Counts...)
	}
	if r.Costs != nil {
		r.Costs = append([]costfn.Func(nil), r.Costs...)
	}
	return r
}

// Checkpoint captures a session's full input history. Replaying it into a
// fresh session (Resume) reproduces the algorithm state bit-identically.
type Checkpoint struct {
	// Alg names the algorithm; Resume callers use it to construct the
	// right core.Online. Registry-based resume (engine.ResumeSession) is
	// only guaranteed to reconstruct the original algorithm for sessions
	// opened through the registry (engine.OpenSession records the registry
	// key here). Sessions around hand-constructed algorithms — custom
	// parameters, non-stock tracker options — must resume in-process via
	// stream.Resume with an identically-constructed algorithm, or set
	// Options.Alg to a key they have registered.
	Alg string `json:"alg,omitempty"`
	// Slots is the replay log, in feed order.
	Slots []SlotRecord `json:"slots"`
	// Log, when set, holds the replay log in columns in place of Slots:
	// internal/wire decodes a checkpoint's log into it, so that a
	// resume adopts the columns without a copy. encoding/json does not
	// see it; internal/wire encodes either form.
	Log *Log `json:"-"`
}

// Len returns the number of slots in the checkpoint's log.
func (cp *Checkpoint) Len() int {
	if cp.Log != nil {
		return cp.Log.Len()
	}
	return len(cp.Slots)
}

// Records returns the checkpoint's log as records, whichever form holds
// it: Slots itself, or the records of Log.
func (cp *Checkpoint) Records() []SlotRecord {
	if cp.Log != nil {
		return cp.Log.Records()
	}
	return cp.Slots
}

// Portable reports whether the checkpoint survives JSON serialisation
// losslessly: true when no slot carried explicit cost functions.
func (cp *Checkpoint) Portable() bool {
	for _, r := range cp.Records() {
		if r.Costs != nil {
			return false
		}
	}
	return true
}

// Session drives one algorithm over a live slot stream.
type Session struct {
	alg        core.Online
	name       string
	tag        string // checkpoint identifier (registry key or display name)
	fleet      []model.ServerType
	eval       *model.Evaluator      // solves the costs no tracker layer holds
	tel        *solver.PrefixTracker // telemetry tracker: algTracker or the session's own
	algTracker *solver.PrefixTracker // the algorithm's tracker, when it decides each slot as fed
	buffered   bool                  // the algorithm is a core.Buffered one

	fed     int   // slots ingested
	base    int   // slots fed before log[0] (a session restored from its state alone)
	decided int   // slots decided
	failed  error // sticky algorithm failure; the session refuses further feeds
	prev    model.Config
	opSum   numeric.Kahan
	swSum   float64
	optCost float64
	log     Log               // the replay log past base
	scratch model.SlotInput   // slot being fed, resolved (filled by Push)
	window  []model.SlotInput // a buffered algorithm's undecided slots, oldest first (deep copies)

	stateSize int // size of the state the session was restored from, if any
}

// New opens a session for a constructed (never stepped) algorithm over the
// fleet template.
func New(alg core.Online, types []model.ServerType, opts Options) (*Session, error) {
	if alg == nil {
		return nil, fmt.Errorf("stream: nil algorithm")
	}
	err := model.ValidateFleet(types)
	if err != nil {
		return nil, err
	}
	tag := opts.Alg
	if tag == "" {
		tag = alg.Name()
	}
	_, buffered := alg.(core.Buffered)
	fleet := append([]model.ServerType(nil), types...)
	s := &Session{
		alg:      alg,
		name:     alg.Name(),
		tag:      tag,
		fleet:    fleet,
		eval:     model.NewEvaluator(&model.Instance{Types: fleet}),
		buffered: buffered,
		prev:     make(model.Config, len(types)),
	}
	// A buffered algorithm's tracker runs at feed time while its
	// decisions lag, so its layer is never the decided slot's.
	if tr, ok := alg.(core.Tracked); ok && !buffered {
		s.algTracker = tr.Tracker()
	}
	if !opts.DisableOpt {
		// An exact algorithm tracker serves telemetry too, which halves
		// the steady-state per-slot DP work.
		if s.algTracker != nil && s.algTracker.Exact() {
			s.tel = s.algTracker
		} else if s.tel, err = solver.NewStreamTracker(types, solver.Options{}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SharesOptTracker reports whether Opt/Ratio telemetry is served by the
// algorithm's own prefix tracker rather than a session-owned one.
func (s *Session) SharesOptTracker() bool { return s.tel != nil && s.tel == s.algTracker }

// ownsTel reports whether the session runs its own telemetry tracker,
// which it feeds at decision time and saves in its state.
func (s *Session) ownsTel() bool { return s.tel != nil && s.tel != s.algTracker }

// Name returns the wrapped algorithm's display name.
func (s *Session) Name() string { return s.name }

// Alg returns the algorithm identifier the session's checkpoints record
// (Options.Alg, defaulting to the display name).
func (s *Session) Alg() string { return s.tag }

// Err returns the session's sticky failure, if any: once the algorithm
// rejects a slot the session refuses further feeds and reports why here.
func (s *Session) Err() error { return s.failed }

// Fed returns the number of slots ingested so far.
func (s *Session) Fed() int { return s.fed }

// Decided returns the number of slots with an emitted advisory.
func (s *Session) Decided() int { return s.decided }

// CumCost returns the compensated running advisory cost over the decided
// prefix. After Close it equals the batch schedule cost bit-for-bit.
func (s *Session) CumCost() float64 { return s.opSum.Sum() + s.swSum }

// Check reports the error Push would return for in before the algorithm
// sees it — a failed session, a slot out of order or one the fleet
// refuses as the next slot (model.CheckSlot) — changing nothing. A slot
// it accepts can still fail the algorithm. Every tracker and layer the
// session feeds checks the slot again, against its own count of slots.
func (s *Session) Check(in model.SlotInput) error {
	if err := s.takes(in); err != nil {
		return err
	}
	return model.CheckSlot(s.fleet, s.fed+1, in)
}

// takes reports a failed session or a slot out of order.
func (s *Session) takes(in model.SlotInput) error {
	if s.failed != nil {
		return s.failed
	}
	if in.T != 0 && in.T != s.fed+1 {
		return fmt.Errorf("stream: fed slot %d out of order, want %d", in.T, s.fed+1)
	}
	return nil
}

// Push ingests one slot and, when it unlocks a decision, writes the
// advisory into *adv, reusing adv's buffers — the allocation-free core of
// Feed: steady-state pushes on a static fleet perform zero allocations.
// decided is false while a semi-online algorithm's lookahead window fills.
// Inputs are validated before the algorithm sees them; an error leaves the
// session unchanged. Should the algorithm still reject a slot (panic —
// e.g. Algorithm C's subdivision cap), the panic is converted to an error
// and the session refuses further feeds: a live advisory server degrades
// to an error response instead of crashing.
func (s *Session) Push(in model.SlotInput, adv *Advisory) (decided bool, err error) {
	return s.push(in, adv, true)
}

// push is Push, appending the slot to the replay log only when logged
// is set: Resume adopts its checkpoint's log instead.
func (s *Session) push(in model.SlotInput, adv *Advisory, logged bool) (decided bool, err error) {
	if err := s.Check(in); err != nil {
		return false, err
	}
	defer func() {
		if r := recover(); r != nil {
			s.failed = fmt.Errorf("stream: %s failed on slot %d: %v", s.name, s.fed, r)
			decided, err = false, s.failed
		}
	}()

	// Hand the algorithm the slot resolved once, at its absolute index:
	// everything it feeds copies it without resolving it again. The
	// replay log is appended only after Step succeeds, so a checkpoint
	// taken from a failed session still replays cleanly up to the last
	// good slot.
	model.ResolveSlot(s.fleet, s.fed+1, in, &s.scratch)
	s.fed++
	if s.buffered {
		var w model.SlotInput
		model.ResolveSlot(s.fleet, s.fed, s.scratch, &w)
		s.window = append(s.window, w)
	}
	x := s.alg.Step(s.scratch)
	if logged {
		s.log.Append(SlotRecord{Lambda: in.Lambda, Counts: in.Counts, Costs: in.Costs}.clone())
	}
	if x == nil {
		return false, nil
	}
	s.record(x, adv)
	return true, nil
}

// PushBatch feeds the slots of ins in order, writing the advisories the
// batch unlocks into the leading elements of advs (reusing their
// buffers, like Push) and returning how many were decided. advs must
// hold at least len(ins) elements — each slot unlocks at most one
// advisory. Per-slot semantics are exactly those of repeated Push calls:
// slots are committed one at a time, so on error the slots before the
// failing one remain fed (and their advisories are in advs[:decided])
// while the failing slot and everything after it are not. Steady-state
// batches on a static fleet perform zero allocations.
func (s *Session) PushBatch(ins []model.SlotInput, advs []Advisory) (decided int, err error) {
	if len(advs) < len(ins) {
		return 0, fmt.Errorf("stream: advisory buffer holds %d slots, batch has %d", len(advs), len(ins))
	}
	for i := range ins {
		d, err := s.Push(ins[i], &advs[decided])
		if err != nil {
			return decided, err
		}
		if d {
			decided++
		}
	}
	return decided, nil
}

// Feed is Push with an allocated result: it returns the advisories the
// slot unlocks — exactly one for fully online algorithms, none while a
// semi-online algorithm's lookahead window fills.
func (s *Session) Feed(in model.SlotInput) ([]Advisory, error) {
	var adv Advisory
	decided, err := s.Push(in, &adv)
	if err != nil || !decided {
		return nil, err
	}
	return []Advisory{adv}, nil
}

// FeedDemand is Feed for the common demand-only stream: costs and counts
// come from the fleet template.
func (s *Session) FeedDemand(lambda float64) ([]Advisory, error) {
	return s.Feed(model.SlotInput{Lambda: lambda})
}

// Close ends the stream: semi-online algorithms decide their buffered
// slots (shrinking windows toward the horizon), fully online algorithms
// return nothing. The session stays readable but must not be fed again.
func (s *Session) Close() ([]Advisory, error) {
	b, ok := s.alg.(core.Buffered)
	if !ok {
		return nil, nil
	}
	var out []Advisory
	for _, x := range b.Flush() {
		if s.decided >= s.fed {
			return out, fmt.Errorf("stream: %s flushed more decisions than fed slots", s.name)
		}
		var adv Advisory
		s.record(x, &adv)
		out = append(out, adv)
	}
	return out, nil
}

// record accounts one decided slot and fills its advisory in place
// (reusing adv's Config buffer). A fully online algorithm decides the
// slot Push just resolved into s.scratch; a buffered one decides the
// oldest slot of its window, which record then drops.
//
// Opt is the telemetry tracker's prefix optimum. The slot's operating
// cost is read from a DP layer a tracker evaluated for it — the
// telemetry tracker's, else the algorithm's — when x lies on that
// layer's lattice, and solved otherwise.
func (s *Session) record(x model.Config, adv *Advisory) {
	s.decided++
	in := s.scratch
	if s.buffered {
		in = s.window[0]
		s.window = s.window[1:]
	}

	op, ok := 0.0, false
	if s.tel != nil {
		// A session tracker consumes the slot at decision time. The
		// algorithm's consumed it during Step, and its prefix optimum is
		// bit-identical to what a session tracker fed the same inputs
		// produces.
		if s.ownsTel() {
			if _, _, err := s.tel.Push(in); err != nil {
				// The session checked the slot, so the tracker must take it.
				panic("stream: telemetry tracker rejected a validated slot: " + err.Error())
			}
		}
		s.optCost = s.tel.Opt()
		op, ok = s.tel.G(x)
	}
	if !ok && s.algTracker != nil {
		op, ok = s.algTracker.G(x)
	}
	if !ok {
		s.eval.Prepare(in)
		op = s.eval.GPrepared(x)
	}
	sw := model.SwitchCostOf(s.fleet, s.prev, x)
	s.opSum.Add(op)
	s.swSum += sw
	s.prev = append(s.prev[:0], x...)

	*adv = Advisory{
		Slot:      s.decided,
		Lambda:    in.Lambda,
		Config:    append(adv.Config[:0], x...),
		Active:    x.Total(),
		Operating: op,
		Switching: sw,
		CumCost:   s.CumCost(),
		Pending:   s.fed - s.decided,
	}
	if s.tel == nil {
		return
	}
	adv.Opt = s.optCost
	if s.optCost > 0 {
		adv.Ratio = adv.CumCost / s.optCost
	}
}

// Checkpoint snapshots the session's replay log. The returned value is
// independent of the session's future mutations. It panics on a session
// restored from its state alone (LogBase > 0), which does not hold the
// head of its log: its caller owns that head and joins it to LogTail.
func (s *Session) Checkpoint() *Checkpoint {
	if s.base > 0 {
		panic(fmt.Sprintf("stream: Checkpoint of a session that holds its log only past slot %d", s.base))
	}
	cp := &Checkpoint{Alg: s.tag}
	if s.log.Len() > 0 {
		cp.Slots = s.log.Records()
	}
	return cp
}

// LogBase returns how many of the fed slots precede the session's own
// log: 0, unless the session was restored from its state alone.
func (s *Session) LogBase() int { return s.base }

// LogTail returns the replay log past LogBase without a copy, for
// callers that encode it and drop it: it shares the session's columns,
// capacity-capped so later feeds never show through (a column the
// session creates later is not in it). Logged entries are never mutated,
// so the view stays valid while the session runs on; callers must not
// modify it.
func (s *Session) LogTail() Log {
	n := s.log.Len()
	tail := Log{Lambda: s.log.Lambda[:n:n]}
	if s.log.Counts != nil {
		tail.Counts = s.log.Counts[:n:n]
	}
	if s.log.Costs != nil {
		tail.Costs = s.log.Costs[:n:n]
	}
	return tail
}

// ReplayDelta is the crash-recovery seam: it feeds a write-ahead log's
// delta records (internal/wal) into a session resumed from the newest
// snapshot. Each record carries the absolute 1-based index T it was
// assigned when first fed — unlike SlotRecord, the index travels with
// the record so replay can skip entries a snapshot already covers —
// tolerating exactly the artifacts a WAL accumulates in normal
// operation. Records at or below the session's fed count are skipped
// (duplicates from a crash between snapshot save and log compaction, or
// from a client retry after a failed fsync); records the session's
// validation rejects are skipped too (orphans whose original push was
// logged but then failed the algorithm step — replay fails them
// deterministically again). A record past the next expected slot means
// the log lost its middle, and a sticky algorithm failure means the
// session cannot advance: both stop the replay, returning what was
// applied. The replayed advisories are discarded — they were emitted
// before the crash.
func (s *Session) ReplayDelta(recs []model.SlotInput) (applied int, err error) {
	var adv Advisory
	for _, rec := range recs {
		if rec.T <= s.fed {
			continue
		}
		if rec.T != s.fed+1 {
			return applied, fmt.Errorf("stream: replay gap: record %d after slot %d", rec.T, s.fed)
		}
		if _, err := s.Push(rec, &adv); err != nil {
			if s.failed != nil {
				return applied, err
			}
			continue
		}
		applied++
	}
	return applied, nil
}

// Resume rebuilds a session from a checkpoint by replaying its log into a
// freshly constructed (never stepped) algorithm. The replayed advisories
// are discarded — they were already emitted by the original session — and
// the returned session continues exactly where the checkpoint was taken.
//
// A checkpoint that holds its log in columns (cp.Log) gives Resume
// ownership of them: they become the session's replay log, uncopied,
// and the session's pushes append into their spare capacity. One that
// holds Slots has its demands copied into a column, and its records'
// counts and cost functions shared. Either way the caller must not
// modify the checkpoint's log afterwards, nor push to two sessions
// resumed from one cp; the session's Checkpoint is an independent copy.
func Resume(alg core.Online, types []model.ServerType, opts Options, cp *Checkpoint) (*Session, error) {
	s, err := New(alg, types, opts)
	if err != nil {
		return nil, err
	}
	var lg Log
	if cp.Log == nil {
		lg = logOf(cp.Slots)
	} else if err := cp.Log.check(); err != nil {
		return nil, err
	} else {
		lg = *cp.Log
	}
	var adv Advisory
	for i := range lg.Len() {
		rec := lg.at(i)
		in := model.SlotInput{T: i + 1, Lambda: rec.Lambda, Costs: rec.Costs, Counts: rec.Counts}
		if _, err := s.push(in, &adv, false); err != nil {
			return nil, fmt.Errorf("stream: replaying slot %d: %w", i+1, err)
		}
	}
	s.log = lg
	return s, nil
}

// The session state codec (see AppendState).
const (
	sessionStateKind    = 'S'
	sessionStateVersion = 2
)

// AppendState appends the session's decision state to dst: the fed and
// decided counts, the last configuration, both Kahan words of the
// operating-cost sum, the switching and prefix-optimum totals, and the
// nested states of the algorithm and of the session's own telemetry
// tracker (if any), sealed with a CRC-32C. Nothing in it names the log
// it covers: a caller that stores both binds them itself. It returns
// dst unchanged when the algorithm has no state codec (not a
// core.Snapshotter) or the session has failed; such sessions resume by
// replay only. Room for the state is reserved up front from the size of
// the state the session was restored from. Like Push, it writes the
// session's algorithm (core.Snapshotter), so callers serialise the two.
func (s *Session) AppendState(dst []byte) []byte {
	alg, ok := s.alg.(core.Snapshotter)
	if !ok || s.failed != nil {
		return dst
	}
	dst = slices.Grow(dst, s.stateSize+stateSlack)
	start := len(dst)
	dst = statebuf.AppendHeader(dst, sessionStateKind, sessionStateVersion)
	dst = statebuf.AppendInt(dst, s.fed)
	dst = statebuf.AppendInt(dst, s.decided)
	dst = statebuf.AppendInts(dst, s.prev)
	sum, comp := s.opSum.Parts()
	dst = statebuf.AppendFloat(dst, sum)
	dst = statebuf.AppendFloat(dst, comp)
	dst = statebuf.AppendFloat(dst, s.swSum)
	dst = statebuf.AppendFloat(dst, s.optCost)
	dst = statebuf.AppendNested(dst, alg.AppendState)
	if s.ownsTel() {
		dst = statebuf.AppendNested(dst, s.tel.AppendState)
	} else {
		dst = statebuf.AppendBytes(dst, nil)
	}
	return statebuf.AppendChecksum(dst, start)
}

// stateSlack is the room AppendState reserves beyond the size of the
// state the session was restored from: what one push adds to a state
// (a wider slot count, a few more pending power-ups).
const stateSlack = 256

// savedState is a decoded AppendState encoding.
type savedState struct {
	fed, decided              int
	prev                      model.Config
	sum, comp, swSum, optCost float64
	alg, opt                  []byte
	size                      int // the encoding's length
}

// readState decodes and checks a session state on its own.
func readState(state []byte) (st savedState, err error) {
	body, err := statebuf.Verify(state)
	if err != nil {
		return st, err
	}
	r := statebuf.NewReader(body)
	r.Header(sessionStateKind, sessionStateVersion)
	st.fed, st.decided = r.Int(), r.Int()
	st.prev = r.Ints()
	st.sum, st.comp, st.swSum, st.optCost = r.Float(), r.Float(), r.Float(), r.Float()
	st.alg, st.opt = r.Bytes(), r.Bytes()
	st.size = len(state)
	if err := r.Done(); err != nil {
		return st, err
	}
	if st.decided < 0 || st.decided > st.fed {
		return st, statebuf.ErrMalformed
	}
	return st, nil
}

// StateFed returns the number of slots a session state covers, the fed
// count of the session that saved it, after checking the state's seal.
func StateFed(state []byte) (int, error) {
	st, err := readState(state)
	return st.fed, err
}

// RestoreFromState rebuilds a session from the state its session saved
// with AppendState, for a caller that keeps the replay log the state
// covers and has made sure the state belongs to it: nothing ties the
// two together here. The session and its trackers are positioned past
// the covered slots without their inputs (their next slot resolves
// costs at its absolute index), and its log starts empty
// with LogBase at the restored fed count. The result continues
// bit-identically to the session Resume replays from the whole log.
// alg must be freshly constructed and have a state codec
// (core.Snapshotter). Any error — a damaged state, another version,
// algorithm or fleet — leaves alg unusable, and the caller resumes by
// replaying its log into a fresh one.
func RestoreFromState(alg core.Online, types []model.ServerType, opts Options, state []byte) (*Session, error) {
	sn, ok := alg.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("stream: %s has no state codec", alg.Name())
	}
	st, err := readState(state)
	if err != nil {
		return nil, err
	}
	if len(st.prev) != len(types) {
		return nil, statebuf.ErrMalformed
	}
	s, err := New(alg, types, opts)
	if err != nil {
		return nil, err
	}
	if s.ownsTel() != (len(st.opt) > 0) {
		return nil, fmt.Errorf("stream: state and session disagree on a telemetry tracker: %w", statebuf.ErrMalformed)
	}
	sn.Seek(st.fed)
	if err := sn.RestoreState(st.alg); err != nil {
		return nil, err
	}
	if s.ownsTel() {
		// The telemetry tracker consumes slots at decision time.
		s.tel.Seek(st.decided)
		if err := s.tel.RestoreState(st.opt); err != nil {
			return nil, err
		}
	}
	// The saved prefix optimum is the one the session's telemetry reports
	// after the restore, 0 without telemetry: a state saved with
	// telemetry on does not restore into a DisableOpt session, or the
	// reverse, whose replay would save another optimum.
	opt := 0.0
	if s.tel != nil {
		opt = s.tel.Opt()
	}
	if math.Float64bits(st.optCost) != math.Float64bits(opt) {
		return nil, fmt.Errorf("stream: state saved prefix optimum %v, the session's telemetry reports %v: %w", st.optCost, opt, statebuf.ErrMalformed)
	}
	s.fed, s.base, s.decided, s.prev = st.fed, st.fed, st.decided, st.prev
	s.stateSize = st.size
	s.opSum = numeric.KahanOf(st.sum, st.comp)
	s.swSum, s.optCost = st.swSum, st.optCost
	return s, nil
}
