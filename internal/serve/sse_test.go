package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/stream"
)

// sseFrame is one parsed server-sent event; heartbeat comments surface
// as event "comment".
type sseFrame struct {
	event string
	id    string
	data  string
}

// sseStream is a test-side SSE consumer: a reader goroutine parses the
// response body into frames.
type sseStream struct {
	t      *testing.T
	resp   *http.Response
	frames chan sseFrame
	cancel context.CancelFunc
}

// sseSubscribe opens GET /v1/sessions/{id}/stream and starts parsing.
func sseSubscribe(t *testing.T, base, id string) *sseStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe %q: HTTP %d: %s", id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q, want text/event-stream", ct)
	}
	s := &sseStream{t: t, resp: resp, frames: make(chan sseFrame, 4096), cancel: cancel}
	go s.read()
	t.Cleanup(s.close)
	return s
}

func (s *sseStream) close() { s.cancel() }

func (s *sseStream) read() {
	defer close(s.frames)
	defer s.resp.Body.Close()
	sc := bufio.NewScanner(s.resp.Body)
	var f sseFrame
	pending := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if pending {
				s.frames <- f
				f, pending = sseFrame{}, false
			}
		case strings.HasPrefix(line, ":"):
			s.frames <- sseFrame{event: "comment", data: strings.TrimSpace(line[1:])}
		case strings.HasPrefix(line, "event: "):
			f.event, pending = line[len("event: "):], true
		case strings.HasPrefix(line, "id: "):
			f.id, pending = line[len("id: "):], true
		case strings.HasPrefix(line, "data: "):
			f.data, pending = line[len("data: "):], true
		}
	}
}

// next returns the next frame, failing the test after timeout. ok is
// false when the stream closed.
func (s *sseStream) next(timeout time.Duration) (sseFrame, bool) {
	s.t.Helper()
	select {
	case f, ok := <-s.frames:
		return f, ok
	case <-time.After(timeout):
		s.t.Fatal("timed out waiting for an SSE frame")
		return sseFrame{}, false
	}
}

// collectUntilEnd drains advisory frames (skipping comments) until the
// end frame, returning them and the end reason.
func (s *sseStream) collectUntilEnd(timeout time.Duration) ([]sseFrame, string) {
	s.t.Helper()
	var advs []sseFrame
	for {
		f, ok := s.next(timeout)
		if !ok {
			s.t.Fatal("stream closed without an end frame")
		}
		switch f.event {
		case "comment":
		case "advisory":
			advs = append(advs, f)
		case "end":
			var body struct {
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal([]byte(f.data), &body); err != nil {
				s.t.Fatalf("end frame data %q: %v", f.data, err)
			}
			return advs, body.Reason
		default:
			s.t.Fatalf("unexpected SSE event %q", f.event)
		}
	}
}

const sseWait = 10 * time.Second

// The SSE acceptance test: for a fully online and a semi-online
// algorithm, the advisories delivered over the stream are
// bit-identical — content and order — to the polled push results for
// the same trace, across a mid-stream checkpoint→evict→reconnect→resume
// cycle, with the semi-online tail delivered before the "deleted" end
// frame.
func TestSSEDifferential(t *testing.T) {
	for _, alg := range []string{"alg-b", "receding-horizon"} {
		t.Run(alg, func(t *testing.T) {
			t.Run("codec=wire", func(t *testing.T) { testSSEDifferential(t, alg) })
		})
	}
}

func testSSEDifferential(t *testing.T, alg string) {
	const seed = 7
	sc, ok := engine.Lookup("quickstart")
	if !ok {
		t.Fatal("quickstart not registered")
	}
	ins := sc.Instance(seed)
	spec, ok := engine.LookupAlgorithm(alg)
	if !ok {
		t.Fatalf("%s not registered", alg)
	}
	want := serialAdvisories(t, spec, ins)

	m := NewManager(Options{StreamHeartbeat: time.Hour})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}
	id := "sse-" + alg

	cl.mustDo("POST", "/v1/sessions", OpenRequest{
		ID: id, Alg: alg, Fleet: FleetJSON{Scenario: "quickstart", Seed: seed},
	}, nil, http.StatusCreated)
	sub := sseSubscribe(t, srv.URL, id)

	// Drive the trace with polls, cycling the session through
	// checkpoint→evict at the halfway slot.
	var polled []stream.Advisory
	half := ins.T() / 2
	pushRange := func(from, to int) {
		for ts := from; ts <= to; ts++ {
			var res PushResult
			cl.mustDo("POST", "/v1/sessions/"+id+"/push", PushRequest{Lambda: ins.Lambda[ts-1]}, &res, http.StatusOK)
			if res.Decided {
				polled = append(polled, *res.Advisory)
			}
		}
	}
	pushRange(1, half)
	cl.mustDo("POST", "/v1/sessions/"+id+"/checkpoint", nil, nil, http.StatusOK)
	if err := m.Evict(id); err != nil {
		t.Fatalf("evict: %v", err)
	}

	streamed, reason := sub.collectUntilEnd(sseWait)
	if reason != StreamEndEvicted {
		t.Fatalf("first stream ended %q, want %q", reason, StreamEndEvicted)
	}
	if len(streamed) != len(polled) {
		t.Fatalf("pre-evict stream delivered %d advisories, polls decided %d", len(streamed), len(polled))
	}

	// Reconnect: the subscription resumes the evicted session from the
	// store, exactly as a push would.
	sub2 := sseSubscribe(t, srv.URL, id)
	pushRange(half+1, ins.T())
	var closed CloseResult
	cl.mustDo("DELETE", "/v1/sessions/"+id, nil, &closed, http.StatusOK)
	polled = append(polled, closed.Advisories...)

	s2, reason := sub2.collectUntilEnd(sseWait)
	if reason != StreamEndDeleted {
		t.Fatalf("second stream ended %q, want %q", reason, StreamEndDeleted)
	}
	streamed = append(streamed, s2...)

	// Bit-identity, three ways: the streamed payload bytes must equal
	// the canonical encoding of each polled advisory (json.Marshal is
	// the reference), the decoded values must match, and the id field
	// must carry the slot for gap detection.
	if len(streamed) != len(polled) {
		t.Fatalf("stream delivered %d advisories, polls decided %d", len(streamed), len(polled))
	}
	if len(polled) != len(want) {
		t.Fatalf("polls decided %d advisories, serial reference %d", len(polled), len(want))
	}
	for i := range polled {
		ref, err := json.Marshal(&polled[i])
		if err != nil {
			t.Fatal(err)
		}
		if streamed[i].data != string(ref) {
			t.Fatalf("slot %d: stream payload %s != polled %s", i+1, streamed[i].data, ref)
		}
		if streamed[i].id != strconv.Itoa(polled[i].Slot) {
			t.Fatalf("slot %d: frame id %q != slot %d", i+1, streamed[i].id, polled[i].Slot)
		}
		var got stream.Advisory
		if err := json.Unmarshal([]byte(streamed[i].data), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("slot %d: streamed advisory %+v != serial %+v", i+1, got, want[i])
		}
	}

	if met := m.Metrics(); met.SessionsResumed != 1 {
		t.Errorf("resumed %d sessions, want 1 (the post-evict reconnect)", met.SessionsResumed)
	}
	if n := m.streamSubs.Load(); n != 0 {
		t.Errorf("stream subscriber gauge = %d after both streams ended, want 0", n)
	}
}

// Batched flushes: advisories decided while the consumer is not
// reading arrive in order and complete, and one stream sees everything
// a batch push decides.
func TestSSEBatchPush(t *testing.T) {
	t.Run("codec=wire", testSSEBatchPush)
}

func testSSEBatchPush(t *testing.T) {
	m := NewManager(Options{StreamHeartbeat: time.Hour})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}

	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "b", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	sub := sseSubscribe(t, srv.URL, "b")

	trace := quickstartTrace(t)[:8]
	batch := make([]PushRequest, len(trace))
	for i, l := range trace {
		batch[i] = PushRequest{Lambda: l}
	}
	var res []PushResult
	cl.mustDo("POST", "/v1/sessions/b/push", batch, &res, http.StatusOK)
	cl.mustDo("DELETE", "/v1/sessions/b", nil, nil, http.StatusOK)

	streamed, reason := sub.collectUntilEnd(sseWait)
	if reason != StreamEndDeleted {
		t.Fatalf("stream ended %q, want %q", reason, StreamEndDeleted)
	}
	if len(streamed) != len(res) {
		t.Fatalf("stream delivered %d advisories for a %d-slot batch", len(streamed), len(res))
	}
	for i, f := range streamed {
		if f.id != strconv.Itoa(res[i].Advisory.Slot) {
			t.Fatalf("frame %d id %q != slot %d", i, f.id, res[i].Advisory.Slot)
		}
	}
}

// Heartbeats keep an idle stream verifiably alive, and a client
// disconnect tears the subscription down server-side.
func TestSSEHeartbeatAndDisconnect(t *testing.T) {
	m := NewManager(Options{StreamHeartbeat: 5 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}

	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "hb", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	sub := sseSubscribe(t, srv.URL, "hb")
	for i := 0; i < 2; i++ {
		if f, ok := sub.next(sseWait); !ok || f.event != "comment" || f.data != "hb" {
			t.Fatalf("frame %d on an idle stream: %+v (ok=%v), want a hb comment", i, f, ok)
		}
	}

	sub.cancel() // client disconnect
	deadline := time.Now().Add(sseWait)
	for m.streamSubs.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber gauge still %d after client disconnect", m.streamSubs.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// Subscribing to an unknown session answers the ordinary JSON 404 —
// the content type never switches to text/event-stream.
func TestSSEUnknownSession(t *testing.T) {
	t.Run("codec=wire", testSSEUnknownSession)
}

func testSSEUnknownSession(t *testing.T) {
	m := NewManager(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/sessions/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(string(body), `"error"`) {
		t.Fatalf("no error body: %s", body)
	}
}

// A subscriber that stops reading is cut off with reason "lagged" once
// it falls StreamBuffer behind — the push path never blocks on it, and
// the session keeps serving.
func TestSubscribeLagged(t *testing.T) {
	m := NewManager(Options{StreamBuffer: 2})
	if _, err := m.Open(OpenRequest{ID: "lag", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe("lag")
	if err != nil {
		t.Fatal(err)
	}
	trace := quickstartTrace(t)
	for i := 0; i < 4; i++ { // buffer 2 + the overflow push
		if _, err := m.Push("lag", PushRequest{Lambda: trace[i]}); err != nil {
			t.Fatalf("push %d with a lagging subscriber: %v", i, err)
		}
	}
	got := 0
	for range sub.C {
		got++
	}
	if got != 2 {
		t.Fatalf("lagged subscriber received %d advisories, want the 2 buffered", got)
	}
	if sub.Reason() != StreamEndLagged {
		t.Fatalf("reason %q, want %q", sub.Reason(), StreamEndLagged)
	}
	if n := m.streamSubs.Load(); n != 0 {
		t.Fatalf("subscriber gauge = %d, want 0", n)
	}
	// Unsubscribe after the fact is a harmless no-op.
	m.Unsubscribe(sub)
	if n := m.streamSubs.Load(); n != 0 {
		t.Fatalf("gauge went negative after late Unsubscribe: %d", n)
	}
}

// Manager shutdown ends every subscription with reason "drain".
func TestSubscribeDrain(t *testing.T) {
	m := NewManager(Options{})
	if _, err := m.Open(OpenRequest{ID: "dr", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe("dr")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for range sub.C {
	}
	if sub.Reason() != StreamEndDrain {
		t.Fatalf("reason %q, want %q", sub.Reason(), StreamEndDrain)
	}
	if _, err := m.Subscribe("dr"); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close: %v, want ErrClosed", err)
	}
}

// Concurrent subscribers on one session all see the full advisory
// sequence, in order.
func TestSSEFanOut(t *testing.T) {
	m := NewManager(Options{StreamHeartbeat: time.Hour})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}

	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "fan", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
	subs := make([]*sseStream, 3)
	for i := range subs {
		subs[i] = sseSubscribe(t, srv.URL, "fan")
	}
	trace := quickstartTrace(t)[:6]
	for _, l := range trace {
		cl.mustDo("POST", "/v1/sessions/fan/push", PushRequest{Lambda: l}, nil, http.StatusOK)
	}
	cl.mustDo("DELETE", "/v1/sessions/fan", nil, nil, http.StatusOK)

	var first []sseFrame
	for i, sub := range subs {
		streamed, reason := sub.collectUntilEnd(sseWait)
		if reason != StreamEndDeleted {
			t.Fatalf("subscriber %d ended %q", i, reason)
		}
		if len(streamed) != len(trace) {
			t.Fatalf("subscriber %d got %d advisories, want %d", i, len(streamed), len(trace))
		}
		if i == 0 {
			first = streamed
			continue
		}
		for j := range streamed {
			if streamed[j] != first[j] {
				t.Fatalf("subscriber %d frame %d diverges: %+v != %+v", i, j, streamed[j], first[j])
			}
		}
	}
}
