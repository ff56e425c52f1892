package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stream"
)

// httpClient drives the serve API in tests, failing the owning test on
// transport errors and decoding every response strictly.
type httpClient struct {
	t    *testing.T
	base string
}

func (c *httpClient) do(method, path string, body, into any) (int, string) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode < 300 && into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode, string(data)
}

// mustDo is do with a required status.
func (c *httpClient) mustDo(method, path string, body, into any, want int) {
	c.t.Helper()
	if got, raw := c.do(method, path, body, into); got != want {
		c.t.Fatalf("%s %s: HTTP %d (want %d): %s", method, path, got, want, raw)
	}
}

// serialAdvisories is the reference: the full trace through one in-process
// stream session, exactly as the pre-serve CLI would run it.
func serialAdvisories(t *testing.T, spec engine.AlgSpec, ins *model.Instance) []stream.Advisory {
	t.Helper()
	sess, err := engine.OpenSession(spec.Key, ins.Types, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []stream.Advisory
	for ts := 1; ts <= ins.T(); ts++ {
		in := model.SlotInput{Lambda: ins.Lambda[ts-1]}
		if ins.Counts != nil {
			in.Counts = ins.Counts[ts-1]
		}
		advs, err := sess.Feed(in)
		if err != nil {
			t.Fatalf("serial slot %d: %v", ts, err)
		}
		out = append(out, advs...)
	}
	tail, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, tail...)
}

// The tentpole's acceptance test: for every registered streamable
// algorithm on three stock scenarios, the full trace driven through the
// HTTP API — interleaved across all sessions at once — produces
// advisories bit-identical to a serial stream.Session.Feed, including
// across a mid-trace checkpoint→evict→transparent-resume cycle.
//
// The codec=wire subtest level here and in the other HTTP, SSE and
// Retry-After suites keeps their test names stable from when an
// encoding/json codec ran beside wire; wire is now the only production
// codec, and encoding/json is the oracle the tests compare against.
func TestHTTPDifferentialAllAlgorithms(t *testing.T) {
	t.Run("codec=wire", testHTTPDifferentialAllAlgorithms)
}

func testHTTPDifferentialAllAlgorithms(t *testing.T) {
	const seed = 7
	scenarios := []string{"quickstart", "onoff", "heterogeneous"}

	type job struct {
		id   string
		spec engine.AlgSpec
		ins  *model.Instance
		sc   string
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
				id:   fmt.Sprintf("%s-%s", name, spec.Key),
				spec: spec, ins: ins, sc: name,
			})
		}
	}
	if len(jobs) < 8 {
		t.Fatalf("only %d applicable algorithm x scenario sessions; want >= 8 for the concurrency requirement", len(jobs))
	}

	m := NewManager(Options{MaxSessions: len(jobs) + 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, jb := range jobs {
		wg.Add(1)
		go func(jb job) {
			defer wg.Done()
			if err := runDifferentialJob(t, m, srv.URL, jb.id, jb.sc, seed, jb.spec, jb.ins); err != nil {
				errs <- fmt.Errorf("%s: %w", jb.id, err)
			}
		}(jb)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	met := m.Metrics()
	if met.SessionsEvicted != uint64(len(jobs)) || met.SessionsResumed != uint64(len(jobs)) {
		t.Errorf("metrics: evicted %d resumed %d, want %d each (one mid-trace cycle per session)",
			met.SessionsEvicted, met.SessionsResumed, len(jobs))
	}
	if met.SessionsOpened != uint64(len(jobs)) || met.SessionsDeleted != uint64(len(jobs)) {
		t.Errorf("metrics: opened %d deleted %d, want %d each", met.SessionsOpened, met.SessionsDeleted, len(jobs))
	}
}

// runDifferentialJob drives one session's full trace over HTTP (with the
// mid-trace evict cycle) and compares against the serial reference.
// Failures are returned, not t.Fatal'd: it runs off the test goroutine.
func runDifferentialJob(t *testing.T, m *Manager, baseURL, id, scenario string, seed int64, spec engine.AlgSpec, ins *model.Instance) error {
	want := serialAdvisories(t, spec, ins)
	cl := &httpClient{t: t, base: baseURL}

	var info SessionInfo
	cl.mustDo("POST", "/v1/sessions", OpenRequest{
		ID: id, Alg: spec.Key, Fleet: FleetJSON{Scenario: scenario, Seed: seed},
	}, &info, http.StatusCreated)
	if info.ID != id || info.Alg != spec.Key {
		return fmt.Errorf("open returned %+v", info)
	}

	var got []stream.Advisory
	half := ins.T() / 2
	for ts := 1; ts <= ins.T(); ts++ {
		req := PushRequest{Lambda: ins.Lambda[ts-1]}
		if ins.Counts != nil {
			req.Counts = ins.Counts[ts-1]
		}
		var res PushResult
		cl.mustDo("POST", "/v1/sessions/"+id+"/push", req, &res, http.StatusOK)
		if res.Decided {
			got = append(got, *res.Advisory)
		}

		if ts == half {
			// Mid-trace lifecycle: persist a snapshot, shed the live
			// session, and let the next push resume it transparently.
			var snap Snapshot
			cl.mustDo("POST", "/v1/sessions/"+id+"/checkpoint", nil, &snap, http.StatusOK)
			if len(snap.Checkpoint.Slots) != ts {
				return fmt.Errorf("checkpoint at slot %d holds %d slots", ts, len(snap.Checkpoint.Slots))
			}
			if err := m.Evict(id); err != nil {
				return fmt.Errorf("evict: %v", err)
			}
		}
	}

	var closed CloseResult
	cl.mustDo("DELETE", "/v1/sessions/"+id, nil, &closed, http.StatusOK)
	got = append(got, closed.Advisories...)

	if len(got) != len(want) {
		return fmt.Errorf("decided %d slots, serial reference decided %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("slot %d advisory diverged:\n http: %+v\nserial: %+v", i+1, got[i], want[i])
		}
	}
	if closed.Info.CumCost != want[len(want)-1].CumCost {
		return fmt.Errorf("close cum cost %v != serial %v", closed.Info.CumCost, want[len(want)-1].CumCost)
	}
	// The deleted id must be gone for good.
	if status, _ := cl.do("GET", "/v1/sessions/"+id, nil, nil); status != http.StatusNotFound {
		return fmt.Errorf("deleted session still answers with HTTP %d", status)
	}
	return nil
}

// Time-varying fleet sizes flow through the HTTP push path: the
// maintenance scenario's per-slot counts produce the same advisories as
// the serial session, including across the mid-trace evict cycle.
func TestHTTPDifferentialTimeVaryingCounts(t *testing.T) {
	t.Run("codec=wire", testHTTPDifferentialTimeVaryingCounts)
}

func testHTTPDifferentialTimeVaryingCounts(t *testing.T) {
	m := NewManager(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	sc, _ := engine.Lookup("maintenance")
	ins := sc.Instance(1)
	spec, ok := engine.LookupAlgorithm("alg-b")
	if !ok {
		t.Fatal("alg-b not registered")
	}
	if err := runDifferentialJob(t, m, srv.URL, "maintenance-counts", "maintenance", 1, spec, ins); err != nil {
		t.Fatal(err)
	}
}
