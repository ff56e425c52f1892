package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// tokenBucket semantics, on synthetic clocks: exact admits, exact
// waits, burst capping, and charge clamping.
func TestTokenBucket(t *testing.T) {
	const sec = int64(time.Second)

	// 2 tokens/sec, burst 4, starting full at t=0.
	b := newTokenBucket(2, 4, 0)
	for i := 0; i < 4; i++ {
		if d, ok := b.take(0, 1); !ok {
			t.Fatalf("take %d of the initial burst denied (wait %v)", i+1, d)
		}
	}
	d, ok := b.take(0, 1)
	if ok {
		t.Fatal("5th take from a burst-4 bucket admitted")
	}
	if d != 500*time.Millisecond {
		t.Fatalf("wait after draining = %v, want 500ms (one 2/sec token)", d)
	}
	// Half a second later exactly one token is back.
	if _, ok := b.take(sec/2, 1); !ok {
		t.Fatal("token not back after its exact refill interval")
	}
	if _, ok := b.take(sec/2, 1); ok {
		t.Fatal("second token admitted before accrual")
	}

	// Accrual is capped at burst: after a long idle stretch, exactly
	// burst tokens are available.
	if _, ok := b.take(1000*sec, 4); !ok {
		t.Fatal("burst not available after long idle")
	}
	if _, ok := b.take(1000*sec, 1); ok {
		t.Fatal("more than burst accrued over idle time")
	}

	// An oversized charge is clamped to the capacity: it drains the
	// bucket fully instead of being undeliverable forever.
	if _, ok := b.take(2000*sec, 100); !ok {
		t.Fatal("oversized charge never admittable")
	}
	if _, ok := b.take(2000*sec, 1); ok {
		t.Fatal("bucket not drained by clamped oversized charge")
	}

	if nb := newTokenBucket(0, 10, 0); nb != nil {
		t.Fatal("rate 0 must mean unlimited (nil bucket)")
	}
}

// The global rate gate: pushes beyond the burst shed with ErrThrottled
// (HTTP 429) carrying a computed Retry-After, count as PushesShed (not
// PushErrors), and feed nothing.
func TestAdmissionGlobalRate(t *testing.T) {
	// 1 token per 1000s: the burst is all a test run ever gets, so the
	// outcome is deterministic on a real clock.
	m := NewManager(Options{GlobalRate: 0.001, GlobalBurst: 2})
	if _, err := m.Open(OpenRequest{ID: "g", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	trace := quickstartTrace(t)
	pushAll(t, m, "g", trace, 0, 2)

	_, err := m.Push("g", PushRequest{Lambda: trace[2]})
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("push past the burst: err %v, want ErrThrottled", err)
	}
	if status := httpStatus(err); status != http.StatusTooManyRequests {
		t.Fatalf("throttled status %d, want 429", status)
	}
	d, ok := RetryAfter(err)
	if !ok || d <= 0 {
		t.Fatalf("throttled Retry-After = %v, %v; want a positive wait", d, ok)
	}
	met := m.Metrics()
	if met.PushesShed != 1 || met.PushErrors != 0 {
		t.Fatalf("metrics after shed: %+v (want 1 shed, 0 errors)", met)
	}
	if info, _ := m.Info("g"); info.Fed != 2 {
		t.Fatalf("shed push fed something: %d slots, want 2", info.Fed)
	}
}

// The per-session gate throttles one session without touching its
// neighbors.
func TestAdmissionSessionRate(t *testing.T) {
	m := NewManager(Options{SessionRate: 0.001, SessionBurst: 2})
	trace := quickstartTrace(t)
	for _, id := range []string{"s1", "s2"} {
		if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
			t.Fatal(err)
		}
	}
	pushAll(t, m, "s1", trace, 0, 2)
	if _, err := m.Push("s1", PushRequest{Lambda: trace[2]}); !errors.Is(err, ErrThrottled) {
		t.Fatalf("s1 past its burst: err %v, want ErrThrottled", err)
	}
	// s2's bucket is untouched by s1's exhaustion.
	pushAll(t, m, "s2", trace, 0, 2)
	if met := m.Metrics(); met.PushesShed != 1 {
		t.Fatalf("metrics: %+v, want exactly 1 shed", met)
	}
}

// The in-flight budget: with MaxInFlight=1 and one push parked on a
// held session lock, the next push sheds immediately with ErrOverloaded
// (HTTP 503) instead of queueing without bound.
func TestAdmissionMaxInFlight(t *testing.T) {
	m := NewManager(Options{MaxInFlight: 1})
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "mif", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}

	// Wedge the session: hold its lock from a helper goroutine.
	release := make(chan struct{})
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = m.withSession("mif", func(*liveSession) { close(held); <-release })
	}()
	<-held

	// First push is admitted and parks on the lock.
	go func() {
		defer wg.Done()
		if _, err := m.Push("mif", PushRequest{Lambda: trace[0]}); err != nil {
			t.Errorf("parked push failed: %v", err)
		}
	}()
	for m.adm.inFlight.Load() != 1 {
		time.Sleep(50 * time.Microsecond)
	}

	// Second push finds the budget spent.
	_, err := m.Push("mif", PushRequest{Lambda: trace[0]})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("push over the in-flight budget: err %v, want ErrOverloaded", err)
	}
	if status := httpStatus(err); status != http.StatusServiceUnavailable {
		t.Fatalf("overloaded status %d, want 503", status)
	}
	if d, ok := RetryAfter(err); !ok || d <= 0 {
		t.Fatalf("overloaded Retry-After = %v, %v; want a positive hint", d, ok)
	}

	close(release)
	wg.Wait()
	met := m.Metrics()
	if met.PushesShed != 1 || met.SlotsPushed != 1 {
		t.Fatalf("metrics: %+v (want 1 shed, 1 pushed)", met)
	}
}

// Options.PushDeadline turns a wedged session into a clean ErrDeadline
// (HTTP 504): the push feeds nothing, counts as a timeout, and the
// session serves normally once unwedged.
func TestPushDeadlineWedgedSession(t *testing.T) {
	m := NewManager(Options{PushDeadline: 25 * time.Millisecond})
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "wedge", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "wedge", trace, 0, 3)

	release := make(chan struct{})
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.withSession("wedge", func(*liveSession) { close(held); <-release })
	}()
	<-held

	_, err := m.Push("wedge", PushRequest{Lambda: trace[3]})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("push against a wedged session: err %v, want ErrDeadline", err)
	}
	if status := httpStatus(err); status != http.StatusGatewayTimeout {
		t.Fatalf("deadline status %d, want 504", status)
	}
	close(release)
	wg.Wait()

	// Nothing was fed by the timed-out push; the retry lands cleanly.
	if info, _ := m.Info("wedge"); info.Fed != 3 {
		t.Fatalf("timed-out push fed something: %d slots, want 3", info.Fed)
	}
	pushAll(t, m, "wedge", trace, 3, 5)
	met := m.Metrics()
	if met.PushTimeouts != 1 || met.PushErrors != 0 || met.SlotsPushed != 5 {
		t.Fatalf("metrics: %+v (want 1 timeout, 0 errors, 5 pushed)", met)
	}
}

// hookStore lets a test intercept store calls: the hooks run at entry,
// so a blocking hook wedges the operation deterministically.
type hookStore struct {
	*MemStore
	mu       sync.Mutex
	onLoad   func()
	onDelete func()
}

func (s *hookStore) set(onLoad, onDelete func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onLoad, s.onDelete = onLoad, onDelete
}

func (s *hookStore) Load(id string) (*Snapshot, bool, error) {
	s.mu.Lock()
	h := s.onLoad
	s.mu.Unlock()
	if h != nil {
		h()
	}
	return s.MemStore.Load(id)
}

func (s *hookStore) Delete(id string) error {
	s.mu.Lock()
	h := s.onDelete
	s.mu.Unlock()
	if h != nil {
		h()
	}
	return s.MemStore.Delete(id)
}

// A wedged store read is bounded by the push deadline too: a resume
// whose Load hangs answers ErrDeadline, and the session resumes
// normally once the store recovers.
func TestPushDeadlineWedgedStore(t *testing.T) {
	st := &hookStore{MemStore: NewMemStore()}
	m := NewManager(Options{Store: st, PushDeadline: 25 * time.Millisecond})
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "ws", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "ws", trace, 0, 3)
	if err := m.Evict("ws"); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	st.set(func() { <-release }, nil)
	_, err := m.Push("ws", PushRequest{Lambda: trace[3]})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("push with a hung store: err %v, want ErrDeadline", err)
	}
	close(release)
	st.set(nil, nil)

	// The store recovered; the retry resumes and feeds.
	pushAll(t, m, "ws", trace, 3, 5)
	info, err := m.Info("ws")
	if err != nil || info.Fed != 5 {
		t.Fatalf("after store recovery: info %+v err %v", info, err)
	}
	if met := m.Metrics(); met.PushTimeouts != 1 {
		t.Fatalf("metrics: %+v, want 1 timeout", met)
	}
}

// A caller-canceled context answers ErrDeadline even with no
// PushDeadline configured (an HTTP client disconnect mid-push).
func TestPushCanceledContext(t *testing.T) {
	m := NewManager(Options{})
	if _, err := m.Open(OpenRequest{ID: "cx", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.PushCtx(ctx, "cx", PushRequest{Lambda: 1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("push under a canceled context: err %v, want ErrDeadline", err)
	}
	if info, _ := m.Info("cx"); info.Fed != 0 {
		t.Fatal("canceled push fed a slot")
	}
}

// Evict vs. an in-flight push: the eviction must answer ErrBusy, not
// block and not win — deterministically, with the push parked first.
func TestEvictBusyAgainstInFlightPush(t *testing.T) {
	m := NewManager(Options{})
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "busy", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "busy", trace, 0, 2)

	release := make(chan struct{})
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.withSession("busy", func(*liveSession) { close(held); <-release })
	}()
	<-held
	if err := m.Evict("busy"); !errors.Is(err, ErrBusy) {
		t.Fatalf("evict against a held session: err %v, want ErrBusy", err)
	}
	close(release)
	wg.Wait()
	if err := m.Evict("busy"); err != nil {
		t.Fatalf("evict after the push drained: %v", err)
	}
}

// Evict vs. a PushBatch mid-resume: the placeholder holds the session
// lock for the whole store read, so a concurrent evict answers ErrBusy
// and the batch lands intact.
func TestEvictBusyAgainstResumingBatch(t *testing.T) {
	st := &hookStore{MemStore: NewMemStore()}
	m := NewManager(Options{Store: st})
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "rb", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "rb", trace, 0, 3)
	if err := m.Evict("rb"); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	entered := make(chan struct{})
	st.set(func() { close(entered); <-release }, nil)

	reqs := []PushRequest{{Lambda: trace[3]}, {Lambda: trace[4]}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := m.PushBatch("rb", reqs)
		if err != nil || len(res) != 2 {
			t.Errorf("resuming batch: %d results, err %v", len(res), err)
		}
	}()
	<-entered // the batch is inside the store read, placeholder locked

	if err := m.Evict("rb"); !errors.Is(err, ErrBusy) {
		t.Fatalf("evict against a resuming session: err %v, want ErrBusy", err)
	}
	close(release)
	st.set(nil, nil)
	wg.Wait()

	info, err := m.Info("rb")
	if err != nil || info.Fed != 5 {
		t.Fatalf("after resume+batch: info %+v err %v", info, err)
	}
}

// A double delete has exactly one winner: the loser sees
// ErrUnknownSession (404), never a half-deleted session and never a
// hang — pinned with the store's Delete wedged mid-flight.
func TestDoubleDelete(t *testing.T) {
	st := &hookStore{MemStore: NewMemStore()}
	m := NewManager(Options{Store: st})
	trace := quickstartTrace(t)
	if _, err := m.Open(OpenRequest{ID: "dd", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	pushAll(t, m, "dd", trace, 0, 2)

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	st.set(nil, func() { once.Do(func() { close(entered) }); <-release })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := m.Delete("dd"); err != nil {
			t.Errorf("winning delete failed: %v", err)
		}
	}()
	<-entered // the winner closed the session and is inside store.Delete

	if _, err := m.Delete("dd"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("losing delete: err %v, want ErrUnknownSession", err)
	}
	close(release)
	st.set(nil, nil)
	wg.Wait()

	if _, err := m.Info("dd"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("deleted session still answers: %v", err)
	}
}

// Shed responses carry Retry-After over HTTP: 429 from the rate
// limiter with the computed wait.
func TestHTTPRetryAfterThrottle(t *testing.T) {
	t.Run("codec=wire", testHTTPRetryAfterThrottle)
}

func testHTTPRetryAfterThrottle(t *testing.T) {
	m := NewManager(Options{GlobalRate: 0.001, GlobalBurst: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}

	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "ra", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	cl.mustDo("POST", "/v1/sessions/ra/push", PushRequest{Lambda: 1}, nil, http.StatusOK)

	resp := rawPost(t, srv.URL+"/v1/sessions/ra/push", `{"lambda": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled push: HTTP %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("throttled Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	var mt struct {
		OK      bool    `json:"ok"`
		Metrics Metrics `json:"metrics"`
	}
	cl.mustDo("GET", "/v1/healthz", nil, &mt, http.StatusOK)
	if mt.Metrics.PushesShed != 1 {
		t.Fatalf("healthz after shed: %+v, want pushes_shed 1", mt.Metrics)
	}
}

// The admission fast path must stay allocation-free on accept —
// shedding is only cheaper than serving if admission itself is ~free.
// TestAdmissionAllocs holds admit at exactly 0 allocs/op; ns/op is for
// the record, as tens of nanoseconds drown in timer noise.
func BenchmarkAdmission(b *testing.B) {
	b.Run("admit", func(b *testing.B) {
		m := NewManager(Options{GlobalRate: 1e12, MaxInFlight: 1 << 30, SessionRate: 1e12})
		met := m.stripeFor("bench")
		now := time.Now()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.admitPush(met, now, 1); err != nil {
				b.Fatal(err)
			}
			m.releasePush()
		}
	})
	b.Run("deny", func(b *testing.B) {
		m := NewManager(Options{GlobalRate: 0.001, GlobalBurst: 1})
		met := m.stripeFor("bench")
		now := time.Now().Add(time.Hour)
		_, _ = m.adm.global.take(now.UnixNano(), 1) // drain the burst
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.admitPush(met, now, 1); err == nil {
				b.Fatal("deny bench admitted")
			}
		}
	})
}

// The accept path is a CAS loop on purpose: a single allocation there is
// a design regression. (A denied push is allowed its one allocation, the
// error carrying the computed wait.)
func TestAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	m := NewManager(Options{GlobalRate: 1e12, MaxInFlight: 1 << 30, SessionRate: 1e12})
	met := m.stripeFor("bench")
	now := time.Now()
	a := testing.AllocsPerRun(1000, func() {
		if err := m.admitPush(met, now, 1); err != nil {
			t.Fatal(err)
		}
		m.releasePush()
	})
	if a != 0 {
		t.Fatalf("admission accept allocates %v per push, want 0", a)
	}
}
