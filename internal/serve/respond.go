package serve

import (
	"io"
	"net/http"

	"repro/internal/wire"
)

// Response framing shared by the JSON API (http.go) and the SSE stream
// transport (sse.go). The handlers decide *what* to answer — status,
// error taxonomy, Retry-After, response shape — and call the plain
// functions below for *how* it is framed. Hot-path responses (push in
// both forms, session info, healthz), every error body and push-request
// decoding run on the zero-reflection internal/wire codec, whose bytes
// are exactly encoding/json's (FuzzWireCodec, TestServeWireEncoders and
// TestHTTPPushBodies hold it to that). Cold success bodies (open, list,
// checkpoint, delete, algs) stay on writeJSON, where reflection cost is
// irrelevant.

// encodeFailure answers the encode-failed 500. The body is a JSON
// error object like every other error response, so the Content-Type
// must say so — http.Error (the previous fallback) stamped text/plain
// on it, and clients keying dispatch on the header saw a JSON body they
// were told not to parse.
func encodeFailure(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = io.WriteString(w, "{\"error\":\"response encoding failed\"}\n")
}

// writeWireError answers a manager error: {"error":"..."} with the
// httpStatus mapping and Retry-After on shed responses.
func writeWireError(w http.ResponseWriter, err error) {
	setRetryAfter(w, err)
	writeErrorText(w, httpStatus(err), err.Error())
}

// writeErrorText answers {"error":msg} with the given status — the
// request-level rejections (oversize, unreadable or malformed bodies)
// that never reach the manager.
func writeErrorText(w http.ResponseWriter, status int, msg string) {
	bp := wireBuf()
	*bp = wire.AppendError(*bp, msg)
	writeWire(w, status, bp, nil)
}

// writeBatchError answers a failed batch push whose leading slots were
// committed: the error plus their results, keeping the error's status —
// and, like every shed response, its Retry-After header.
func writeBatchError(w http.ResponseWriter, err error, res []PushResult) {
	setRetryAfter(w, err)
	bp := wireBuf()
	b, werr := wire.AppendBatchError(*bp, err.Error(), res)
	*bp = b
	writeWire(w, httpStatus(err), bp, werr)
}

func writePushResult(w http.ResponseWriter, res *PushResult) {
	bp := wireBuf()
	b, werr := wire.AppendPushResult(*bp, res)
	*bp = b
	writeWire(w, http.StatusOK, bp, werr)
}

func writePushResults(w http.ResponseWriter, res []PushResult) {
	bp := wireBuf()
	b, werr := wire.AppendPushResults(*bp, res)
	*bp = b
	writeWire(w, http.StatusOK, bp, werr)
}

func writeSessionInfo(w http.ResponseWriter, info *SessionInfo) {
	bp := wireBuf()
	b, werr := appendSessionInfo(*bp, info)
	*bp = b
	writeWire(w, http.StatusOK, bp, werr)
}

func writeHealthz(w http.ResponseWriter, mt *Metrics) {
	bp := wireBuf()
	b, werr := appendHealthz(*bp, true, mt)
	*bp = b
	writeWire(w, http.StatusOK, bp, werr)
}

// decodePushOne decodes a single-slot push body, answering the 400
// itself on failure; the caller proceeds only on true. The wire scanner
// runs the happy path; when it rejects, the input is already known
// malformed (the codecs accept identical inputs), so the strict
// reflection decoder runs a second pass purely to reproduce
// encoding/json's error prose. It returns by value with a
// wire-path-only local so the happy path's target stays off the heap;
// the fallback declares its own, which escapes into encoding/json's any
// but is reached only on malformed input.
func decodePushOne(w http.ResponseWriter, data []byte) (PushRequest, bool) {
	var req PushRequest
	if wire.DecodePushRequest(data, &req) == nil {
		return req, true
	}
	var slow PushRequest
	ok := decodeStrict(w, data, &slow)
	return slow, ok
}

// decodePushBatch is decodePushOne's batch-form twin.
func decodePushBatch(w http.ResponseWriter, data []byte) ([]PushRequest, bool) {
	var reqs []PushRequest
	if wire.DecodePushRequests(data, &reqs) == nil {
		return reqs, true
	}
	var slow []PushRequest
	ok := decodeStrict(w, data, &slow)
	return slow, ok
}
