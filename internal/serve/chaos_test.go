package serve

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stream"
)

// The chaos acceptance test: with the snapshot store injecting 20%
// save/load failures, torn writes and latency, every streamable
// algorithm's full trace — fed concurrently, with evictions forced
// mid-trace and an EvictIdle janitor hammering from the side — still
// produces advisories bit-identical to a fault-free serial feed, and
// no session is ever silently lost (every one ends with the full trace
// fed). Store failures are allowed to surface as errors; they are
// never allowed to corrupt or drop state.
func TestChaosDifferential(t *testing.T) {
	const seed = 7
	scenarios := []string{"quickstart", "onoff"}

	type job struct {
		id   string
		sc   string
		spec engine.AlgSpec
		ins  *model.Instance
	}
	var jobs []job
	for _, name := range scenarios {
		sc, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		ins := sc.Instance(seed)
		for _, spec := range engine.Algorithms() {
			if !spec.Streamable() {
				continue
			}
			if spec.Skip != nil && spec.Skip(ins) != "" {
				continue
			}
			jobs = append(jobs, job{
				id: fmt.Sprintf("chaos-%s-%s", name, spec.Key),
				sc: name, spec: spec, ins: ins,
			})
		}
	}
	if len(jobs) < 8 {
		t.Fatalf("only %d chaos jobs; want >= 8", len(jobs))
	}

	fs := NewFaultStore(NewMemStore(), FaultConfig{
		Seed:          42,
		SaveErrRate:   0.2,
		LoadErrRate:   0.2,
		TornWriteRate: 0.5,
		MaxLatency:    200 * time.Microsecond,
	})
	m := NewManager(Options{MaxSessions: len(jobs) + 1, Store: fs})
	// No real backoff sleeps: injected failures cost no test time.
	m.sleepFn = func(time.Duration) {}

	// Janitor chaos: keep evicting everything idle while the traces run.
	// Injected save failures surface as ErrStore here — tolerated, the
	// sessions must simply stay live and correct.
	var chaosWg sync.WaitGroup
	var done atomic.Bool
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		for !done.Load() {
			if _, err := m.EvictIdle(0); err != nil && !errors.Is(err, ErrStore) {
				t.Errorf("EvictIdle: %v", err)
				return
			}
			m.Metrics()
		}
	}()

	// retryStore runs op until it stops failing with ErrStore (the
	// manager guarantees an ErrStore push/open changed nothing, so the
	// retry is always safe); anything else is the job's problem.
	retryStore := func(op func() error) error {
		var lastErr error
		for attempt := 0; attempt < 50; attempt++ {
			err := op()
			if err == nil || !errors.Is(err, ErrStore) {
				return err
			}
			lastErr = err
		}
		return fmt.Errorf("never recovered: %w", lastErr)
	}

	// tails carries each job's streamed-advisory count and serial
	// reference across the disarm barrier to the delete-tail comparison.
	type tailCheck struct {
		got  int
		want []stream.Advisory
	}
	tails := struct {
		sync.Mutex
		m map[string]tailCheck
	}{m: map[string]tailCheck{}}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, jb := range jobs {
		wg.Add(1)
		go func(jb job) {
			defer wg.Done()
			if err := retryStore(func() error {
				_, err := m.Open(OpenRequest{ID: jb.id, Alg: jb.spec.Key, Fleet: FleetJSON{Scenario: jb.sc, Seed: seed}})
				return err
			}); err != nil {
				errs <- fmt.Errorf("%s: open: %w", jb.id, err)
				return
			}
			var got []stream.Advisory
			for ts := 1; ts <= jb.ins.T(); ts++ {
				req := PushRequest{Lambda: jb.ins.Lambda[ts-1]}
				if jb.ins.Counts != nil {
					req.Counts = jb.ins.Counts[ts-1]
				}
				var res PushResult
				if err := retryStore(func() error {
					var perr error
					res, perr = m.Push(jb.id, req)
					return perr
				}); err != nil {
					errs <- fmt.Errorf("%s: slot %d: %w", jb.id, ts, err)
					return
				}
				if res.Decided {
					got = append(got, *res.Advisory)
				}
				if ts%7 == 3 {
					// Force an eviction: ErrBusy (janitor races), ErrStore
					// (injected save failure after retries — the session must
					// stay live) and ErrUnknownSession (the janitor evicted it
					// first; the next push resumes it) are all fine.
					if err := m.Evict(jb.id); err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrStore) && !errors.Is(err, ErrUnknownSession) {
						errs <- fmt.Errorf("%s: evict at %d: %w", jb.id, ts, err)
						return
					}
				}
				if ts%11 == 5 {
					if _, err := m.Checkpoint(jb.id); err != nil && !errors.Is(err, ErrStore) {
						errs <- fmt.Errorf("%s: checkpoint at %d: %w", jb.id, ts, err)
						return
					}
				}
			}
			// No session silently lost: the full trace must be accounted
			// for. The janitor may have evicted the session after its last
			// push, so Info may resume it through a faulty load — an
			// ErrStore the caller retries, like any push; a lost session
			// would answer ErrUnknownSession instead.
			var info SessionInfo
			if err := retryStore(func() error {
				var ierr error
				info, ierr = m.Info(jb.id)
				return ierr
			}); err != nil {
				errs <- fmt.Errorf("%s: info: %w", jb.id, err)
				return
			}
			if info.Fed != jb.ins.T() {
				errs <- fmt.Errorf("%s: fed %d slots, want %d — session state lost under faults", jb.id, info.Fed, jb.ins.T())
				return
			}

			// Bit-identical to the fault-free serial reference.
			want := serialAdvisories(t, jb.spec, jb.ins)
			gotN := len(got)
			// The close tail flushes after injection is disarmed (below);
			// compare the streamed prefix now and stash the rest.
			if gotN > len(want) {
				errs <- fmt.Errorf("%s: decided %d slots, serial reference decided %d", jb.id, gotN, len(want))
				return
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					errs <- fmt.Errorf("%s: advisory %d diverged under faults:\nchaos:  %+v\nserial: %+v", jb.id, i+1, got[i], want[i])
					return
				}
			}
			tails.Lock()
			tails.m[jb.id] = tailCheck{got: gotN, want: want}
			tails.Unlock()
		}(jb)
	}
	wg.Wait()
	done.Store(true)
	chaosWg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// The injection must actually have fired, or this test proves nothing.
	st := fs.Stats()
	if st.SaveErrs == 0 || st.LoadErrs == 0 {
		t.Fatalf("fault injection never fired: %+v", st)
	}
	met := m.Metrics()
	if met.StoreRetries == 0 {
		t.Errorf("no store retries recorded under %d injected save failures", st.SaveErrs)
	}
	if met.SessionsResumed == 0 {
		t.Error("no session ever resumed — evictions never survived the faults")
	}

	// Heal the store and close every session: the semi-online tails must
	// match the serial reference too, completing the bit-identical claim.
	fs.Disarm()
	tails.Lock()
	defer tails.Unlock()
	for id, tc := range tails.m {
		// The janitor may have evicted the session after its last push;
		// deleting a snapshot discards the semi-online tail by design, so
		// resume it first (Info acquires) — the janitor is stopped, so it
		// stays live through the delete.
		if _, err := m.Info(id); err != nil {
			t.Errorf("%s: info after disarm: %v", id, err)
			continue
		}
		closed, err := m.Delete(id)
		if err != nil {
			t.Errorf("%s: delete after disarm: %v", id, err)
			continue
		}
		full := append([]stream.Advisory{}, tc.want[:tc.got]...)
		full = append(full, closed.Advisories...)
		if len(full) != len(tc.want) {
			t.Errorf("%s: %d advisories with tail, serial reference has %d", id, len(full), len(tc.want))
			continue
		}
		for i := tc.got; i < len(full); i++ {
			if !reflect.DeepEqual(full[i], tc.want[i]) {
				t.Errorf("%s: tail advisory %d diverged:\nchaos:  %+v\nserial: %+v", id, i+1, full[i], tc.want[i])
				break
			}
		}
	}
}

// A FaultStore's decisions are a pure function of (seed, op, id,
// ordinal): two stores with the same seed fail the same calls in the
// same order, regardless of what happened in between.
func TestFaultStoreDeterminism(t *testing.T) {
	run := func() []bool {
		fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 99, SaveErrRate: 0.5, LoadErrRate: 0.5})
		var outcomes []bool
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("s%d", i%3)
			err := fs.Save(&Snapshot{ID: id, Fleet: quickstartFleet()})
			outcomes = append(outcomes, err == nil)
			_, _, lerr := fs.Load(id)
			outcomes = append(outcomes, lerr == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different outcomes:\n%v\n%v", a, b)
	}
	allSame := true
	for _, ok := range a {
		if !ok {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("injection at 50% never fired in 40 ops")
	}
}

// scriptStore fails the first failN saves, then behaves; it records
// every call so tests can assert the retry cadence.
type scriptStore struct {
	*MemStore
	saves atomic.Int64
	failN int64
}

func (s *scriptStore) Save(snap *Snapshot) error {
	if s.saves.Add(1) <= s.failN {
		return errors.New("scripted save failure")
	}
	return s.MemStore.Save(snap)
}

// An eviction whose save fails transiently retries with the doubling
// backoff and succeeds; the retries land in the metrics and the
// session is resumable afterwards.
func TestEvictRetriesThenSucceeds(t *testing.T) {
	st := &scriptStore{MemStore: NewMemStore(), failN: 2}
	m := NewManager(Options{Store: st})
	var slept []time.Duration
	m.sleepFn = func(d time.Duration) { slept = append(slept, d) }

	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "retry-me", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "retry-me", trace, 0, 5)
	if err := m.Evict("retry-me"); err != nil {
		t.Fatalf("evict should have succeeded on the third save: %v", err)
	}
	if want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}; !reflect.DeepEqual(slept, want) {
		t.Fatalf("backoff sequence %v, want %v", slept, want)
	}
	if met := m.Metrics(); met.StoreRetries != 2 || met.SessionsEvicted != 1 {
		t.Fatalf("metrics after retried evict: %+v", met)
	}
	// The session resumes transparently and continues.
	pushAll(t, m, "retry-me", trace, 5, 8)
	info, err := m.Info("retry-me")
	if err != nil || info.Fed != 8 {
		t.Fatalf("after resume: info %+v err %v", info, err)
	}
}

// An eviction whose saves all fail gives up with ErrStore — and the
// session stays live with nothing lost, shadowing whatever garbage the
// failed (possibly torn) writes left in the store.
func TestEvictFailedSaveKeepsSessionLive(t *testing.T) {
	st := &scriptStore{MemStore: NewMemStore(), failN: 1 << 30}
	m := NewManager(Options{Store: st})
	var slept []time.Duration
	m.sleepFn = func(d time.Duration) { slept = append(slept, d) }

	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "sticky", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "sticky", trace, 0, 6)
	if err := m.Evict("sticky"); !errors.Is(err, ErrStore) {
		t.Fatalf("evict with a dead store: err %v, want ErrStore", err)
	}
	met := m.Metrics()
	if met.SessionsEvicted != 0 || met.LiveSessions != 1 || met.StoreRetries != 3 {
		t.Fatalf("metrics after failed evict: %+v", met)
	}
	// Still live, still correct, still pushable — no resume involved.
	pushAll(t, m, "sticky", trace, 6, 10)
	info, err := m.Info("sticky")
	if err != nil || info.Fed != 10 {
		t.Fatalf("after failed evict: info %+v err %v", info, err)
	}
	if st.saves.Load() != 4 {
		t.Fatalf("store saw %d saves, want 4 (1 + 3 retries)", st.saves.Load())
	}
	if want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}; !reflect.DeepEqual(slept, want) {
		t.Fatalf("backoff sequence %v, want %v", slept, want)
	}
}

// A torn write (Save fails after persisting a truncated snapshot) must
// never surface: the live session shadows the store, and the next
// successful save overwrites the damage before anything can load it.
func TestTornWriteNeverServed(t *testing.T) {
	inner := NewMemStore()
	fs := NewFaultStore(inner, FaultConfig{Seed: 1, SaveErrRate: 1, TornWriteRate: 1})
	m := NewManager(Options{Store: fs})
	m.sleepFn = func(time.Duration) {}

	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "torn", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "torn", trace, 0, 8)
	if err := m.Evict("torn"); !errors.Is(err, ErrStore) {
		t.Fatalf("evict: err %v, want ErrStore", err)
	}
	if st := fs.Stats(); st.TornSaves != 4 {
		t.Fatalf("stats %+v, want four torn saves (1 + 3 retries)", st)
	}
	// The store now holds a half-length checkpoint; the live session must
	// shadow it entirely.
	if snap, ok, _ := inner.Load("torn"); !ok || len(snap.Checkpoint.Slots) != 4 {
		t.Fatalf("expected a torn 4-slot snapshot in the store, got ok=%v snap=%+v", ok, snap)
	}
	info, err := m.Info("torn")
	if err != nil || info.Fed != 8 {
		t.Fatalf("live session after torn write: info %+v err %v", info, err)
	}
	// Heal the store; the next eviction overwrites the torn snapshot and
	// a resume replays the full eight slots.
	fs.Disarm()
	if err := m.Evict("torn"); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "torn", trace, 8, 9)
	info, err = m.Info("torn")
	if err != nil || info.Fed != 9 {
		t.Fatalf("after heal+resume: info %+v err %v", info, err)
	}
}
