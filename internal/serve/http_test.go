package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// rawPost posts a raw body (possibly invalid JSON).
func rawPost(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// Every error path answers with the right status code and a JSON error
// body. The manager is shared across cases on purpose: later rows depend
// on the state earlier rows set up (a full manager, a deleted session).
func TestHTTPErrorPaths(t *testing.T) {
	m := NewManager(Options{MaxSessions: 2})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}

	// Fixture sessions: "held" occupies a slot for the whole test;
	// "doomed" is deleted to exercise push-after-close.
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "held", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "doomed", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	cl.mustDo("DELETE", "/v1/sessions/doomed", nil, nil, http.StatusOK)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
	}{
		{"unknown algorithm", "POST", "/v1/sessions",
			OpenRequest{Alg: "no-such-alg", Fleet: quickstartFleet()}, http.StatusBadRequest},
		{"offline-only algorithm", "POST", "/v1/sessions",
			OpenRequest{Alg: "approx", Fleet: quickstartFleet()}, http.StatusBadRequest},
		{"missing algorithm", "POST", "/v1/sessions",
			OpenRequest{Fleet: quickstartFleet()}, http.StatusBadRequest},
		{"unknown fleet scenario", "POST", "/v1/sessions",
			OpenRequest{Alg: "alg-b", Fleet: FleetJSON{Scenario: "no-such-scenario"}}, http.StatusBadRequest},
		{"empty fleet", "POST", "/v1/sessions",
			OpenRequest{Alg: "alg-b"}, http.StatusBadRequest},
		{"invalid session id", "POST", "/v1/sessions",
			OpenRequest{ID: "../escape", Alg: "alg-b", Fleet: quickstartFleet()}, http.StatusBadRequest},
		{"duplicate session id", "POST", "/v1/sessions",
			OpenRequest{ID: "held", Alg: "alg-b", Fleet: quickstartFleet()}, http.StatusConflict},
		{"push to unknown session", "POST", "/v1/sessions/nope/push",
			PushRequest{Lambda: 1}, http.StatusNotFound},
		{"push after close", "POST", "/v1/sessions/doomed/push",
			PushRequest{Lambda: 1}, http.StatusNotFound},
		{"infeasible demand", "POST", "/v1/sessions/held/push",
			PushRequest{Lambda: 1e9}, http.StatusUnprocessableEntity},
		{"negative demand", "POST", "/v1/sessions/held/push",
			PushRequest{Lambda: -1}, http.StatusUnprocessableEntity},
		{"wrong counts arity", "POST", "/v1/sessions/held/push",
			PushRequest{Lambda: 1, Counts: []int{1, 2, 3}}, http.StatusUnprocessableEntity},
		{"path-traversal id", "DELETE", "/v1/sessions/%2e%2e%2fsecret", nil, http.StatusNotFound},
		{"get unknown session", "GET", "/v1/sessions/nope", nil, http.StatusNotFound},
		{"get deleted session", "GET", "/v1/sessions/doomed", nil, http.StatusNotFound},
		{"checkpoint unknown session", "POST", "/v1/sessions/nope/checkpoint", nil, http.StatusNotFound},
		{"delete unknown session", "DELETE", "/v1/sessions/nope", nil, http.StatusNotFound},
		{"delete already-deleted session", "DELETE", "/v1/sessions/doomed", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := cl.do(tc.method, tc.path, tc.body, nil)
			if status != tc.status {
				t.Fatalf("%s %s: HTTP %d, want %d: %s", tc.method, tc.path, status, tc.status, raw)
			}
			if !strings.Contains(raw, `"error"`) {
				t.Fatalf("error response has no error body: %s", raw)
			}
		})
	}

	t.Run("session cap hit", func(t *testing.T) {
		// One slot is held; fill the second, then the third open must 429
		// — and carry a Retry-After so well-behaved clients back off
		// instead of hammering the cap.
		cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "filler", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
		defer cl.mustDo("DELETE", "/v1/sessions/filler", nil, nil, http.StatusOK)
		resp := rawPost(t, srv.URL+"/v1/sessions", `{"alg": "alg-b", "fleet": {"scenario": "quickstart", "seed": 1}}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("open over the cap: HTTP %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("session-cap 429 Retry-After = %q, want \"1\"", ra)
		}
	})

	t.Run("malformed bodies", func(t *testing.T) {
		for _, body := range []string{"{", `{"alg": 7}`, `{"algo": "alg-b"}`, `{"lambda": "x"}`} {
			if resp := rawPost(t, srv.URL+"/v1/sessions", body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("open with body %q: HTTP %d, want 400", body, resp.StatusCode)
			}
		}
		if resp := rawPost(t, srv.URL+"/v1/sessions/held/push", `{"lambda": "NaN"}`); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("push with non-numeric lambda: HTTP %d, want 400", resp.StatusCode)
		}
	})

	t.Run("sticky algorithm failure", func(t *testing.T) {
		// Algorithm C's subdivision cap rejects this degenerate fleet at
		// the first slot; the session degrades to 409s instead of crashing
		// the server.
		body := `{"id": "sticky", "alg": "alg-c", "fleet": {"types": [
			{"name": "srv", "count": 1, "switchCost": 0.001, "maxLoad": 1,
			 "cost": {"kind": "constant", "c": 10000000}}]}}`
		if resp := rawPost(t, srv.URL+"/v1/sessions", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("open sticky fleet: HTTP %d", resp.StatusCode)
		}
		for range 2 { // the failure and the refusal after it
			status, raw := cl.do("POST", "/v1/sessions/sticky/push", PushRequest{Lambda: 0.5}, nil)
			if status != http.StatusConflict {
				t.Fatalf("push to failed session: HTTP %d, want 409: %s", status, raw)
			}
		}
		var info SessionInfo
		cl.mustDo("GET", "/v1/sessions/sticky", nil, &info, http.StatusOK)
		if info.Failed == "" {
			t.Error("session info should carry the sticky failure")
		}
		cl.mustDo("DELETE", "/v1/sessions/sticky", nil, nil, http.StatusOK)
	})
}

// The read-only endpoints serve the registry and the counters.
func TestHTTPAlgsAndHealthz(t *testing.T) {
	m := NewManager(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}

	var algs struct {
		Algorithms []AlgInfo `json:"algorithms"`
	}
	cl.mustDo("GET", "/v1/algs", nil, &algs, http.StatusOK)
	seen := map[string]AlgInfo{}
	for _, a := range algs.Algorithms {
		seen[a.Key] = a
	}
	if a, ok := seen["alg-a"]; !ok || !a.Streamable || a.Bound != "2d+1" {
		t.Errorf("alg-a entry: %+v (ok=%v)", seen["alg-a"], ok)
	}
	if a, ok := seen["approx"]; !ok || a.Streamable {
		t.Errorf("approx must be listed as not streamable: %+v (ok=%v)", seen["approx"], ok)
	}

	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "h", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	for _, lambda := range quickstartTrace(t)[:5] {
		cl.mustDo("POST", "/v1/sessions/h/push", PushRequest{Lambda: lambda}, nil, http.StatusOK)
	}
	var health struct {
		OK      bool    `json:"ok"`
		Metrics Metrics `json:"metrics"`
	}
	cl.mustDo("GET", "/v1/healthz", nil, &health, http.StatusOK)
	if !health.OK || health.Metrics.LiveSessions != 1 || health.Metrics.SlotsPushed != 5 {
		t.Fatalf("healthz: %+v", health)
	}
	if health.Metrics.PushP50Micros <= 0 || health.Metrics.PushP99Micros < health.Metrics.PushP50Micros {
		t.Fatalf("latency quantiles look wrong: %+v", health.Metrics)
	}
}

// The price-modulated scenario defines its costs for 48 slots. Slot 49
// is a bad slot (422), not a failed session (409): the session keeps its
// state and stays usable.
func TestHTTPPushPastProfileHorizon(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "priced", Alg: "alg-b", Fleet: FleetJSON{Scenario: "price-modulated", Seed: 1}}, nil, http.StatusCreated)
	for range 48 {
		cl.mustDo("POST", "/v1/sessions/priced/push", PushRequest{Lambda: 3}, nil, http.StatusOK)
	}
	var before SessionInfo
	cl.mustDo("GET", "/v1/sessions/priced", nil, &before, http.StatusOK)
	for range 2 {
		status, raw := cl.do("POST", "/v1/sessions/priced/push", PushRequest{Lambda: 3}, nil)
		if status != http.StatusUnprocessableEntity || !strings.Contains(raw, "slot 49") {
			t.Fatalf("push past the horizon: HTTP %d %s, want 422 naming slot 49", status, raw)
		}
	}
	var after SessionInfo
	cl.mustDo("GET", "/v1/sessions/priced", nil, &after, http.StatusOK)
	if after != before || after.Fed != 48 || after.Failed != "" {
		t.Fatalf("refused pushes changed the session: %+v, want %+v", after, before)
	}
}
