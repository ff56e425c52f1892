package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/stream"
)

// Every shed/throttle shape carries Retry-After: the single-push
// throttle, the throttled batch head, and the session-cap 429 end to
// end; the batch mid-commit path (unreachable end to end today —
// admission runs before any slot is fed — but load-bearing the moment a
// mid-batch shed exists) directly against writeBatchError, whose body
// must be encoding/json's.
func TestRetryAfterCompleteness(t *testing.T) {
	t.Run("codec=wire", testRetryAfterCompleteness)
}

func testRetryAfterCompleteness(t *testing.T) {
	newThrottled := func(t *testing.T) (*httptest.Server, *httpClient) {
		// 1 token per 1000s, burst 1: the first push drains the bucket
		// and every later deny computes a ~1000s wait.
		m := NewManager(Options{GlobalRate: 0.001, GlobalBurst: 1})
		srv := httptest.NewServer(NewHandler(m))
		t.Cleanup(srv.Close)
		cl := &httpClient{t: t, base: srv.URL}
		cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "ra", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
		cl.mustDo("POST", "/v1/sessions/ra/push", PushRequest{Lambda: 1}, nil, http.StatusOK)
		return srv, cl
	}
	requireRetryAfter := func(t *testing.T, shape string, resp *http.Response, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: HTTP %d, want %d", shape, resp.StatusCode, wantStatus)
		}
		ra := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("%s: Retry-After = %q, want an integer >= 1", shape, ra)
		}
	}

	t.Run("single push", func(t *testing.T) {
		srv, _ := newThrottled(t)
		resp := rawPost(t, srv.URL+"/v1/sessions/ra/push", `{"lambda": 1}`)
		requireRetryAfter(t, "single push", resp, http.StatusTooManyRequests)
	})

	t.Run("batch head", func(t *testing.T) {
		srv, _ := newThrottled(t)
		resp := rawPost(t, srv.URL+"/v1/sessions/ra/push", `[{"lambda": 1}, {"lambda": 2}]`)
		requireRetryAfter(t, "batch head", resp, http.StatusTooManyRequests)
	})

	t.Run("session cap", func(t *testing.T) {
		m := NewManager(Options{MaxSessions: 1})
		srv := httptest.NewServer(NewHandler(m))
		t.Cleanup(srv.Close)
		cl := &httpClient{t: t, base: srv.URL}
		cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "only", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
		resp := rawPost(t, srv.URL+"/v1/sessions", `{"alg": "alg-b", "fleet": {"scenario": "quickstart", "seed": 1}}`)
		requireRetryAfter(t, "session cap", resp, http.StatusTooManyRequests)
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("session-cap Retry-After = %q, want the fixed \"1\"", ra)
		}
	})

	t.Run("batch mid-commit", func(t *testing.T) {
		committed := []PushResult{{Decided: true, Advisory: &stream.Advisory{
			Slot: 1, Lambda: 2, Config: model.Config{1, 0}, Active: 1,
			Operating: 3, Switching: 1, CumCost: 4,
		}}}
		shed := &retryAfterError{err: ErrThrottled, after: 2500 * time.Millisecond}
		rec := httptest.NewRecorder()
		writeBatchError(rec, shed, committed)
		resp := rec.Result()
		requireRetryAfter(t, "batch mid-commit", resp, http.StatusTooManyRequests)
		if ra := resp.Header.Get("Retry-After"); ra != "3" {
			t.Fatalf("2.5s wait rounded to Retry-After %q, want \"3\"", ra)
		}
		body, _ := io.ReadAll(resp.Body)
		want := jsonEncoded(t, batchErrorJSON{Error: shed.Error(), Results: committed})
		if string(body) != want {
			t.Fatalf("partial-commit body:\n got %s\nwant %s", body, want)
		}
	})
}

// Regression (pre-PR bug): open and checkpoint-resume bodies were read
// with no bound at all. They now cap at maxOpenBody and answer 413
// with a JSON error, like oversized pushes always did.
func TestOpenBodyBounded(t *testing.T) {
	m := NewManager(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	huge := strings.Repeat(" ", maxOpenBody+2)
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized open body: HTTP %d, want 413", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("413 Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(string(body), `"error"`) {
		t.Fatalf("413 body: %s", body)
	}

	// A legitimate open still fits comfortably.
	cl := &httpClient{t: t, base: srv.URL}
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "ok", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)
}

// Regression (pre-PR bug): the encode-failure 500 went through
// http.Error, stamping Content-Type: text/plain on a JSON error body.
// Both encode paths' fallbacks now declare the body for what it is.
func TestEncodeFailureContentType(t *testing.T) {
	t.Run("writeJSON", func(t *testing.T) {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, make(chan int)) // unencodable on purpose
		checkEncodeFailure(t, rec)
	})
	t.Run("writeWire", func(t *testing.T) {
		rec := httptest.NewRecorder()
		writeWire(rec, http.StatusOK, wireBuf(), errFakeEncode)
		checkEncodeFailure(t, rec)
	})
}

var errFakeEncode = &encodeTestError{}

type encodeTestError struct{}

func (*encodeTestError) Error() string { return "synthetic encode failure" }

func checkEncodeFailure(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if got := strings.TrimSpace(string(body)); got != `{"error":"response encoding failed"}` {
		t.Fatalf("fallback body: %s", body)
	}
}
