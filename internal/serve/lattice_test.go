package serve

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stream"
)

// A push whose counts exceed the fleet's template is a bad slot (422),
// not a failed session: the session keeps its state and stays usable.
func TestHTTPPushCountsAboveTemplate(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "q", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	cl.mustDo("POST", "/v1/sessions/q/push", PushRequest{Lambda: 3}, nil, http.StatusOK)
	var before SessionInfo
	cl.mustDo("GET", "/v1/sessions/q", nil, &before, http.StatusOK)
	// The quickstart fleet has 8 slow and 3 fast servers.
	status, raw := cl.do("POST", "/v1/sessions/q/push", PushRequest{Lambda: 3, Counts: []int{9, 3}}, nil)
	if status != http.StatusUnprocessableEntity || !strings.Contains(raw, "above the fleet's 8") {
		t.Fatalf("push with 9 of 8 slow servers: HTTP %d %s, want 422", status, raw)
	}
	var after SessionInfo
	cl.mustDo("GET", "/v1/sessions/q", nil, &after, http.StatusOK)
	if after != before {
		t.Fatalf("the refused push changed the session: %+v, want %+v", after, before)
	}
	cl.mustDo("POST", "/v1/sessions/q/push", PushRequest{Lambda: 3, Counts: []int{8, 2}}, nil, http.StatusOK)
}

// Open refuses a fleet whose exact lattice exceeds the cell budget with
// 422, before it builds anything the size of the lattice.
func TestHTTPOpenOverLatticeBudget(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}
	fleet := FleetJSON{Types: []model.ServerTypeJSON{
		{Name: "a", Count: 1000, SwitchCost: 1, MaxLoad: 1, Cost: &model.CostFuncJSON{Kind: "affine", Idle: 1, Rate: 1}},
		{Name: "b", Count: 1000, SwitchCost: 4, MaxLoad: 2, Cost: &model.CostFuncJSON{Kind: "affine", Idle: 2, Rate: 1}},
	}}
	status, raw := cl.do("POST", "/v1/sessions", OpenRequest{ID: "big", Alg: "alg-b", Fleet: fleet}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("open of a 1001 × 1001 fleet: HTTP %d %s, want 422", status, raw)
	}
	if _, err := m.Info("big"); err == nil {
		t.Fatal("the refused open left a session behind")
	}
}

// A client checkpoint whose slots carry counts above the fleet's
// template does not import.
func TestOpenCheckpointCountsAboveTemplate(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	cp := &stream.Checkpoint{Alg: "alg-b", Slots: []stream.SlotRecord{{Lambda: 3}, {Lambda: 3, Counts: []int{9, 3}}, {Lambda: 3}}}
	if _, err := m.Open(OpenRequest{ID: "imp", Fleet: quickstartFleet(), Checkpoint: cp}); err == nil {
		t.Fatal("a checkpoint with 9 of 8 slow servers imported")
	}
}

// Every stock scenario's fleet fits the lattice budget: it opens and
// streams.
func TestEveryScenarioOpens(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	for _, sc := range engine.Scenarios() {
		if _, err := m.Open(OpenRequest{ID: sc.Name, Alg: "alg-b", Fleet: FleetJSON{Scenario: sc.Name, Seed: 1}}); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		ins := sc.Instance(1)
		for s := 0; s < 3; s++ {
			req := PushRequest{Lambda: ins.Lambda[s]}
			if ins.Counts != nil {
				req.Counts = ins.Counts[s]
			}
			if _, err := m.Push(sc.Name, req); err != nil {
				t.Fatalf("%s slot %d: %v", sc.Name, s+1, err)
			}
		}
	}
}

// pushTime returns the fastest of three sessions' mean wall time per
// push of alg on a fleet of n servers per type, over slots of fresh
// demand (no two alike, so the layer memo misses). A fleet the algorithm
// does not open with two types is retried with one type of (n+1)²−1
// servers: the same lattice.
func pushTime(t *testing.T, m *Manager, alg string, n, pushes int, rng *rand.Rand) time.Duration {
	two := FleetJSON{Types: []model.ServerTypeJSON{
		{Name: "a", Count: n, SwitchCost: 6, MaxLoad: 1, Cost: &model.CostFuncJSON{Kind: "affine", Idle: 1, Rate: 0.5}},
		{Name: "b", Count: n, SwitchCost: 20, MaxLoad: 3, Cost: &model.CostFuncJSON{Kind: "power", Idle: 2, Coef: 0.1, Exp: 2}},
	}}
	one := FleetJSON{Types: []model.ServerTypeJSON{
		{Name: "a", Count: (n+1)*(n+1) - 1, SwitchCost: 6, MaxLoad: 1, Cost: &model.CostFuncJSON{Kind: "affine", Idle: 1, Rate: 0.5}},
	}}
	best := time.Duration(math.MaxInt64)
	for run := 0; run < 3; run++ {
		info, err := m.Open(OpenRequest{Alg: alg, Fleet: two})
		if err != nil {
			if info, err = m.Open(OpenRequest{Alg: alg, Fleet: one}); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
		}
		push := func() {
			if _, err := m.Push(info.ID, PushRequest{Lambda: float64(4*n) * (0.1 + 0.8*rng.Float64())}); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
		}
		push() // a lookahead window fills
		push()
		begin := time.Now()
		for i := 0; i < pushes; i++ {
			push()
		}
		best = min(best, time.Since(begin)/time.Duration(pushes))
		if _, err := m.Delete(info.ID); err != nil {
			t.Fatal(err)
		}
	}
	return best
}

// MaxLatticeCells bounds every algorithm the daemon serves: for each
// streamable registry entry, a push costs work linear in the lattice. From 100 to
// 10 000 cells its time grows about 100-fold, where work quadratic in
// the lattice grows 10 000-fold; the bound, 1 000-fold, is the geometric
// mean of the two, so neither a noisy neighbour nor a cache miss flips
// it.
func TestEveryAlgorithmPushLinear(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	rng := rand.New(rand.NewSource(11))
	for _, spec := range engine.Algorithms() {
		if !spec.Streamable() {
			continue
		}
		small, large := pushTime(t, m, spec.Key, 9, 40, rng), pushTime(t, m, spec.Key, 99, 6, rng)
		ratio := float64(large) / float64(small)
		t.Logf("%s: %v a push at 100 cells, %v at 10 000 cells (%.0fx)", spec.Key, small, large, ratio)
		if ratio > 1000 {
			t.Errorf("%s: a push at 10 000 cells takes %.0fx one at 100 cells, want <= 1000x (linear work)", spec.Key, ratio)
		}
	}
}
