package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stream"
)

// The serve-owned wire encoders (session info, healthz) must be
// byte-identical to json.Marshal, like everything in internal/wire.
func TestServeWireEncoders(t *testing.T) {
	infos := []SessionInfo{
		{},
		{ID: "s-1", Alg: "alg-b", Name: "Algorithm B", Fed: 48, Decided: 48, CumCost: 1234.5625},
		{ID: "semi", Alg: "alg-c", Name: "Algorithm C", Fed: 10, Decided: 7, Pending: 3,
			CumCost: 1e-9, Failed: `subdivision cap <&> "hit"`},
		{ID: "x", CumCost: math.MaxFloat64, Pending: -1},
	}
	for _, info := range infos {
		got, err := appendSessionInfo(nil, &info)
		want, werr := json.Marshal(info)
		if (err != nil) != (werr != nil) {
			t.Fatalf("appendSessionInfo(%+v): err=%v, json err=%v", info, err, werr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendSessionInfo(%+v):\nwire %s\njson %s", info, got, want)
		}
	}

	metrics := []Metrics{
		{},
		{LiveSessions: 3, SessionsOpened: 100, SessionsResumed: 2, SessionsEvicted: 2,
			SessionsDeleted: 97, SlotsPushed: 4800, PushErrors: 1,
			PushesShed: 12, PushTimeouts: 3, StoreRetries: 5,
			WALAppends: 4800, WALFsyncs: 4795, WALRecoveredSessions: 2,
			WALTornTails: 1, SnapshotCorrupt: 1,
			PushP50Micros: 812.5, PushP99Micros: 1514.2265625},
		{SlotsPushed: math.MaxUint64, PushP50Micros: 1e-7},
		{PushesShed: math.MaxUint64, PushTimeouts: 1, StoreRetries: math.MaxUint64,
			WALAppends: math.MaxUint64, SnapshotCorrupt: math.MaxUint64},
	}
	for _, mt := range metrics {
		got, err := appendHealthz(nil, true, &mt)
		want, werr := json.Marshal(struct {
			OK      bool    `json:"ok"`
			Metrics Metrics `json:"metrics"`
		}{true, mt})
		if (err != nil) != (werr != nil) {
			t.Fatalf("appendHealthz(%+v): err=%v, json err=%v", mt, err, werr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendHealthz(%+v):\nwire %s\njson %s", mt, got, want)
		}
	}
}

// The encoding/json oracle for response bodies: what encoding/json
// writes for the same values, trailing newline included.
func jsonEncoded(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type errorJSON struct {
	Error string `json:"error"`
}

type batchErrorJSON struct {
	Error   string       `json:"error"`
	Results []PushResult `json:"results"`
}

// pushOracle predicts a push response without the serving stack: the
// body is decoded by a strict json.Decoder, its slots are fed to a
// reference stream.Session, and the answer is built with json.Encoder.
type pushOracle struct {
	t    *testing.T
	sess *stream.Session
}

func (o *pushOracle) expect(id, body string) (int, string) {
	if len(body) > maxPushBody {
		return http.StatusRequestEntityTooLarge,
			jsonEncoded(o.t, errorJSON{fmt.Sprintf("request body exceeds %d bytes", maxPushBody)})
	}
	data := bytes.TrimLeft([]byte(body), " \t\r\n")
	batch := len(data) > 0 && data[0] == '['
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var reqs []PushRequest
	var err error
	if batch {
		err = dec.Decode(&reqs)
	} else {
		var one PushRequest
		err = dec.Decode(&one)
		reqs = []PushRequest{one}
	}
	if err != nil {
		return http.StatusBadRequest, jsonEncoded(o.t, errorJSON{"malformed request body: " + err.Error()})
	}
	if id != "s" {
		return http.StatusNotFound, jsonEncoded(o.t, errorJSON{fmt.Sprintf("%v: %q", ErrUnknownSession, id)})
	}
	results := make([]PushResult, 0, len(reqs))
	for _, req := range reqs {
		adv := &stream.Advisory{}
		decided, perr := o.sess.Push(model.SlotInput{Lambda: req.Lambda, Counts: req.Counts}, adv)
		if perr != nil {
			status, sentinel := http.StatusUnprocessableEntity, ErrBadSlot
			if o.sess.Err() != nil {
				status, sentinel = http.StatusConflict, ErrSessionFailed
			}
			msg := fmt.Sprintf("%v: %v", sentinel, perr)
			if len(results) > 0 {
				return status, jsonEncoded(o.t, batchErrorJSON{msg, results})
			}
			return status, jsonEncoded(o.t, errorJSON{msg})
		}
		res := PushResult{Decided: decided}
		if decided {
			res.Advisory = adv
		}
		results = append(results, res)
	}
	if batch {
		return http.StatusOK, jsonEncoded(o.t, results)
	}
	return http.StatusOK, jsonEncoded(o.t, &results[0])
}

// TestHTTPPushBodies drives raw bodies — valid, malformed, truncated,
// oversize — at a server and requires each response to be exactly the
// encoding/json oracle's: same status, a JSON Content-Type, and the
// same body down to encoding/json's error prose (the wire decoder's
// fallback re-decode) and trailing newline. The oracle's session and
// the server's advance in lockstep, so advisory payloads must match
// byte for byte too.
func TestHTTPPushBodies(t *testing.T) {
	m := NewManager(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := &httpClient{t: t, base: srv.URL}
	cl.mustDo("POST", "/v1/sessions", OpenRequest{ID: "s", Alg: "alg-b", Fleet: quickstartFleet()}, nil, http.StatusCreated)

	fleet := quickstartFleet()
	types, err := fleet.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.OpenSession("alg-b", types, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &pushOracle{t: t, sess: ref}

	post := func(t *testing.T, path, body string) (int, string, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(data)
	}

	oversize := `{"lambda":1,"counts":[` + strings.Repeat("1,", maxPushBody/2) + `1]}`

	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		// Well-formed pushes.
		{"single", "/v1/sessions/s/push", `{"lambda":3.5}`, http.StatusOK},
		{"single folded key", "/v1/sessions/s/push", `{"Lambda":2.25}`, http.StatusOK},
		{"single escaped key", "/v1/sessions/s/push", `{"lambd\u0061":1.5}`, http.StatusOK},
		{"single null lambda", "/v1/sessions/s/push", `{"lambda":null,"counts":null}`, http.StatusOK},
		{"single duplicate keys", "/v1/sessions/s/push", `{"lambda":9,"lambda":0.5}`, http.StatusOK},
		{"single trailing garbage", "/v1/sessions/s/push", `{"lambda":1}x[`, http.StatusOK},
		{"batch", "/v1/sessions/s/push", `[{"lambda":1},{"lambda":2.5}]`, http.StatusOK},
		{"batch empty", "/v1/sessions/s/push", `[]`, http.StatusOK},
		{"batch null element", "/v1/sessions/s/push", `[null,{"lambda":1}]`, http.StatusOK},
		{"null body", "/v1/sessions/s/push", `null`, http.StatusOK},
		// Manager-level rejections (wire-encoded error bodies).
		{"unknown session", "/v1/sessions/nope/push", `{"lambda":1}`, http.StatusNotFound},
		{"infeasible slot", "/v1/sessions/s/push", `{"lambda":1e9}`, http.StatusUnprocessableEntity},
		{"mid-batch error", "/v1/sessions/s/push",
			`[{"lambda":0.5},{"lambda":1e9},{"lambda":0.5}]`, http.StatusUnprocessableEntity},
		{"bad counts arity", "/v1/sessions/s/push", `{"lambda":1,"counts":[1,2,3]}`, http.StatusUnprocessableEntity},
		// Malformed bodies: the wire decoder's fallback must reproduce
		// encoding/json's exact error text.
		{"empty body", "/v1/sessions/s/push", ``, http.StatusBadRequest},
		{"truncated object", "/v1/sessions/s/push", `{"lambda":1`, http.StatusBadRequest},
		{"truncated batch", "/v1/sessions/s/push", `[{"lambda":1},`, http.StatusBadRequest},
		{"truncated string", "/v1/sessions/s/push", `{"lambda`, http.StatusBadRequest},
		{"unknown field", "/v1/sessions/s/push", `{"lambda":1,"bogus":2}`, http.StatusBadRequest},
		{"wrong lambda type", "/v1/sessions/s/push", `{"lambda":"x"}`, http.StatusBadRequest},
		{"wrong counts type", "/v1/sessions/s/push", `{"counts":[1.5]}`, http.StatusBadRequest},
		{"float overflow", "/v1/sessions/s/push", `{"lambda":1e309}`, http.StatusBadRequest},
		{"int overflow", "/v1/sessions/s/push", `{"counts":[9223372036854775808]}`, http.StatusBadRequest},
		{"leading zero", "/v1/sessions/s/push", `{"lambda":01}`, http.StatusBadRequest},
		{"bare value", "/v1/sessions/s/push", `12`, http.StatusBadRequest},
		{"batch of scalars", "/v1/sessions/s/push", `[1,2]`, http.StatusBadRequest},
		{"invalid escape", "/v1/sessions/s/push", `{"lambda\x61":1}`, http.StatusBadRequest},
		// Oversize: MaxBytesReader answers 413 without poisoning pools.
		{"oversize body", "/v1/sessions/s/push", oversize, http.StatusRequestEntityTooLarge},
		{"push after oversize", "/v1/sessions/s/push", `{"lambda":0.5}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := strings.TrimSuffix(strings.TrimPrefix(tc.path, "/v1/sessions/"), "/push")
			wantStatus, wantBody := oracle.expect(id, tc.body)
			if wantStatus != tc.status {
				t.Fatalf("oracle: HTTP %d, want %d: %s", wantStatus, tc.status, wantBody)
			}
			status, ct, body := post(t, tc.path, tc.body)
			if status != wantStatus || body != wantBody || ct != "application/json" {
				t.Errorf("response diverged from encoding/json:\n got: %d %s %q\nwant: %d application/json %q",
					status, ct, body, wantStatus, wantBody)
			}
		})
	}
}
