package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
)

// The HTTP API over a Manager:
//
//	POST   /v1/sessions                 open (or resume from a client checkpoint)
//	GET    /v1/sessions                 list live sessions
//	GET    /v1/sessions/{id}            session state
//	POST   /v1/sessions/{id}/push       feed one slot — or a JSON array of slots
//	GET    /v1/sessions/{id}/stream     subscribe to the session's advisories (SSE)
//	POST   /v1/sessions/{id}/checkpoint persist + return the session snapshot
//	DELETE /v1/sessions/{id}            close the session (flushes semi-online tails)
//	GET    /v1/algs                     the algorithm registry
//	GET    /v1/healthz                  liveness + aggregate counters
//	GET    /metrics                     Prometheus text exposition
//
// The handlers here are the transport-agnostic core: they own the
// request/response *semantics* — status codes, error taxonomy,
// Retry-After, batch partial-commit behavior — and delegate framing to
// the writers in respond.go, which both the JSON API and the SSE
// stream transport (sse.go) share. Errors are {"error": "..."} with a
// status from httpStatus. Request bodies are decoded strictly (unknown
// fields are errors), so client typos fail loudly with 400 instead of
// serving with defaults. The push endpoint's response shape mirrors
// the request: a single slot object answers with a single result
// object, a slot array with a result array (one entry per fed slot, in
// order). A mid-batch per-slot error keeps the error status but
// carries the committed slots' results in the body
// ({"error": ..., "results": [...]}) — batch semantics are exactly
// those of pushing one at a time, where each committed slot's advisory
// was delivered before the error.
//
// Request body buffers and response encoders are pooled (sync.Pool),
// and the hot path — push in both forms, session info, healthz, every
// error — runs on the zero-reflection internal/wire codec. Every
// request body is bounded: pushes by maxPushBody, open/checkpoint-resume
// bodies by maxOpenBody, both answering 413 beyond the cap.

// maxPushBody bounds a push request body. The largest legitimate bodies
// are batch pushes — a full 768-slot trace with per-slot counts is
// still under 64 KiB — so 1 MiB is far past any real request while
// keeping hostile bodies from ballooning the pooled buffers (putBody
// drops oversized ones rather than pinning them).
const maxPushBody = 1 << 20

// maxOpenBody bounds an open request body. Opens can carry a full
// client-held checkpoint — a replay log on the order of 50 bytes per
// slot once the numbers are printed — so the cap is deliberately wider
// than the push cap: 16 MiB admits a ~300k-slot replay, far past any
// real session, while still denying a hostile body the unbounded read
// this path used to do.
const maxOpenBody = 16 << 20

// api is the transport-agnostic request core over a Manager. Handler
// methods never encode bytes themselves — they call the writers in
// respond.go, or writeJSON for cold responses.
type api struct {
	m *Manager
}

// NewHandler wires a Manager into an http.Handler.
func NewHandler(m *Manager) http.Handler {
	a := &api{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", a.open)
	mux.HandleFunc("GET /v1/sessions", a.list)
	mux.HandleFunc("GET /v1/sessions/{id}", a.info)
	mux.HandleFunc("POST /v1/sessions/{id}/push", a.push)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", a.streamAdvisories)
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", a.checkpoint)
	mux.HandleFunc("DELETE /v1/sessions/{id}", a.delete)
	mux.HandleFunc("GET /v1/algs", a.algs)
	mux.HandleFunc("GET /v1/healthz", a.healthz)
	mux.HandleFunc("GET /metrics", a.promMetrics)
	return mux
}

func (a *api) open(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := a.m.Open(req)
	if err != nil {
		writeWireError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (a *api) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sessions []SessionInfo `json:"sessions"`
	}{a.m.Sessions()})
}

func (a *api) info(w http.ResponseWriter, r *http.Request) {
	info, err := a.m.Info(r.PathValue("id"))
	if err != nil {
		writeWireError(w, err)
		return
	}
	writeSessionInfo(w, &info)
}

func (a *api) push(w http.ResponseWriter, r *http.Request) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	if !readBounded(w, r, buf, maxPushBody) {
		return
	}
	data := bytes.TrimLeft(buf.Bytes(), " \t\r\n")
	if len(data) > 0 && data[0] == '[' {
		// Batch form: an array of slots answers with an array of
		// results, fed under one session acquire.
		reqs, ok := decodePushBatch(w, data)
		if !ok {
			return
		}
		res, err := a.m.PushBatchCtx(r.Context(), r.PathValue("id"), reqs)
		if err != nil {
			// A mid-batch per-slot error: the slots before it were
			// committed exactly as repeated single pushes would have,
			// so their results ride along with the error — the client
			// must not lose advisories the session already accounted.
			if len(res) > 0 {
				writeBatchError(w, err, res)
				return
			}
			writeWireError(w, err)
			return
		}
		writePushResults(w, res)
		return
	}
	req, ok := decodePushOne(w, data)
	if !ok {
		return
	}
	res, err := a.m.PushCtx(r.Context(), r.PathValue("id"), req)
	if err != nil {
		writeWireError(w, err)
		return
	}
	writePushResult(w, &res)
}

func (a *api) checkpoint(w http.ResponseWriter, r *http.Request) {
	snap, err := a.m.Checkpoint(r.PathValue("id"))
	if err != nil {
		writeWireError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (a *api) delete(w http.ResponseWriter, r *http.Request) {
	res, err := a.m.Delete(r.PathValue("id"))
	if err != nil {
		writeWireError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *api) algs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Algorithms []AlgInfo `json:"algorithms"`
	}{algInfos()})
}

func (a *api) healthz(w http.ResponseWriter, r *http.Request) {
	mt := a.m.Metrics()
	writeHealthz(w, &mt)
}

// AlgInfo is one registry entry as served by GET /v1/algs.
type AlgInfo struct {
	Key        string `json:"key"`
	Name       string `json:"name"`
	Bound      string `json:"bound"`
	Applies    string `json:"applies"`
	Streamable bool   `json:"streamable"`
	Doc        string `json:"doc"`
}

func algInfos() []AlgInfo {
	specs := engine.Algorithms()
	out := make([]AlgInfo, len(specs))
	for i, s := range specs {
		out[i] = AlgInfo{
			Key: s.Key, Name: s.Name, Bound: s.Bound,
			Applies: s.Applies, Streamable: s.Streamable(), Doc: s.Doc,
		}
	}
	return out
}

// httpStatus maps manager errors onto status codes. Anything unmapped is
// a client mistake in the request itself (unknown algorithm, bad fleet,
// malformed id) and reports 400. The README's "Reliability" section
// documents the full taxonomy; keep the two in sync.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, ErrSessionExists), errors.Is(err, ErrSessionFailed), errors.Is(err, ErrBusy):
		return http.StatusConflict
	case errors.Is(err, ErrSessionLimit), errors.Is(err, ErrThrottled):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBadSlot):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrClosed), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrStore):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// setRetryAfter stamps the Retry-After header on shed responses: the
// admission layer's computed wait (ErrThrottled, ErrOverloaded) rounded
// up to whole seconds — the header's granularity, so never below 1 —
// or a fixed 1 on the session-cap 429 (ErrSessionLimit), whose true
// wait depends on another client's delete or the idle janitor and
// cannot be computed. Both manager-error writers — writeWireError and
// writeBatchError — run through it, so the header survives batch
// partial commits.
func setRetryAfter(w http.ResponseWriter, err error) {
	var secs int64
	if d, ok := RetryAfter(err); ok {
		secs = int64((d + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
	} else if errors.Is(err, ErrSessionLimit) {
		secs = 1
	} else {
		return
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// bodyPool recycles request-body buffers; encPool recycles response
// buffers with their bound JSON encoders. Oversized buffers (huge
// checkpoint payloads) are dropped instead of pinned.
const pooledBufMax = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= pooledBufMax {
		bodyPool.Put(buf)
	}
}

type pooledEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &pooledEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// readBounded reads a request body into buf with a hard cap, answering
// 413 past the cap and 400 on any other read failure; the caller
// proceeds only on true.
func readBounded(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, limit int64) bool {
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorText(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
			return false
		}
		writeErrorText(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return false
	}
	return true
}

// decodeBody strictly decodes a JSON request body — bounded by
// maxOpenBody — answering 400/413 itself when it cannot; the caller
// proceeds only on true.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	if !readBounded(w, r, buf, maxOpenBody) {
		return false
	}
	return decodeStrict(w, buf.Bytes(), into)
}

// decodeStrict decodes one JSON value with unknown fields rejected,
// answering 400 itself on failure.
func decodeStrict(w http.ResponseWriter, data []byte, into any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeErrorText(w, http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	e := encPool.Get().(*pooledEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// Encoding failed before anything was written: answer a clean 500
		// instead of a torn body.
		encPool.Put(e)
		encodeFailure(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes()) // the status line is out; nothing useful to do on error
	if e.buf.Cap() <= pooledBufMax {
		encPool.Put(e)
	}
}
