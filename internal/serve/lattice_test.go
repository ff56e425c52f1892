package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
