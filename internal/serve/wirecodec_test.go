package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// strictDecode is the encoding/json request decoder the wire codec
// stands in for: one JSON value, unknown fields rejected.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// openOracle predicts an open response on the encoding/json path: the
// body is decoded by a strict json.Decoder and opened on a reference
// manager that sees the same requests as the server's, and the answer
// is built with json.Encoder.
type openOracle struct {
	t *testing.T
	m *Manager
}

func (o *openOracle) expect(body string) (int, string) {
	if len(body) > maxOpenBody {
		return http.StatusRequestEntityTooLarge,
			jsonEncoded(o.t, errorJSON{fmt.Sprintf("request body exceeds %d bytes", maxOpenBody)})
	}
	var req OpenRequest
	if err := strictDecode([]byte(body), &req); err != nil {
		return http.StatusBadRequest, jsonEncoded(o.t, errorJSON{"malformed request body: " + err.Error()})
	}
	info, err := o.m.Open(req)
	if err != nil {
		return httpStatus(err), jsonEncoded(o.t, errorJSON{err.Error()})
	}
	return http.StatusCreated, jsonEncoded(o.t, info)
}

type openCase struct {
	name   string
	body   string
	status int
}

// openCases are the open bodies TestHTTPOpenBodies posts in order and
// FuzzOpenRequest starts from. Rows whose outcome depends on earlier
// ones (a taken id, generated ids) rely on that order.
func openCases(tb testing.TB) []openCase {
	const qs = `{"scenario":"quickstart","seed":1}`
	trace := quickstartTrace(tb)
	cp := &stream.Checkpoint{Alg: "alg-b", Slots: make([]stream.SlotRecord, 200)}
	for i := range cp.Slots {
		cp.Slots[i].Lambda = trace[i%len(trace)]
	}
	long, err := json.Marshal(OpenRequest{ID: "long", Fleet: quickstartFleet(), Checkpoint: cp})
	if err != nil {
		tb.Fatal(err)
	}
	deep := strings.Repeat("[", 200) + strings.Repeat("]", 200)
	return []openCase{
		// Well-formed opens.
		{"scenario fleet", `{"id":"o1","alg":"alg-b","fleet":` + qs + `}`, http.StatusCreated},
		{"inline fleet", `{"id":"o2","alg":"alg-a","fleet":{"types":[{"name":"srv","count":2,"switchCost":1,"maxLoad":1,` +
			`"cost":{"kind":"affine","idle":1,"rate":1}}]}}`, http.StatusCreated},
		{"checkpoint", `{"id":"o3","fleet":` + qs + `,"checkpoint":{"alg":"alg-b","slots":[{"lambda":3.5},{"lambda":7.25}]}}`,
			http.StatusCreated},
		{"checkpoint with counts", `{"id":"o4","alg":"alg-b","fleet":` + qs +
			`,"checkpoint":{"alg":"alg-b","slots":[{"lambda":3.5,"counts":[8,3]},{"lambda":2,"counts":[6,2]}]}}`,
			http.StatusCreated},
		{"empty counts", `{"id":"o4e","fleet":` + qs + `,"checkpoint":{"alg":"alg-b","slots":[{"lambda":1,"counts":[]}]}}`,
			http.StatusBadRequest},
		{"long checkpoint", string(long), http.StatusCreated},
		{"folded keys", `{"ID":"o5","ALG":"alg-b","Fleet":{"SCENARIO":"quickstart"},` +
			`"checKpoint":{"Alg":"alg-b","ſlots":[{"LAMBDA":2,"Counts":[8,3]}]}}`, http.StatusCreated},
		{"escaped keys", `{"i\u0064":"o6","\u0061lg":"alg-b","fleet":{"sc\u0065nario":"quickstart"},` +
			`"checkpoint":{"\u0061lg":"alg-b","slot\u0073":[{"l\u0061mbda":1}]}}`, http.StatusCreated},
		{"escaped strings", `{"id":"o\u0037","alg":"alg\u002db","fleet":{"scenario":"quick\u0073tart"}}`, http.StatusCreated},
		{"invalid UTF-8 in alg", "{\"id\":\"o8\",\"alg\":\"alg-\xffb\",\"fleet\":" + qs + "}", http.StatusCreated},
		{"escaped id refused", `{"id":"o\u00e9","alg":"alg-b","fleet":` + qs + `}`, http.StatusBadRequest},
		{"duplicate fleet members merge", `{"id":"o9","alg":"alg-b","fleet":{"scenario":"quickstart"},"fleet":{"seed":1}}`,
			http.StatusCreated},
		{"duplicate fleet members conflict", `{"id":"o10","alg":"alg-b","fleet":{"scenario":"quickstart"},` +
			`"fleet":{"types":[{"name":"srv","count":1,"switchCost":1,"maxLoad":1,"cost":{"kind":"constant","c":1}}]}}`,
			http.StatusBadRequest},
		{"duplicate slots members", `{"id":"o11","fleet":` + qs +
			`,"checkpoint":{"alg":"alg-b","slots":[{"lambda":1},{"lambda":2}],"slots":[null]}}`, http.StatusCreated},
		{"duplicate checkpoint members", `{"id":"o12","fleet":` + qs +
			`,"checkpoint":{"alg":"alg-b"},"checkpoint":{"slots":[{"lambda":1}]}}`, http.StatusCreated},
		{"duplicate ids", `{"id":"x","id":"o13","alg":"alg-b","fleet":` + qs + `}`, http.StatusCreated},
		{"null body", `null`, http.StatusBadRequest},
		{"null fleet", `{"id":"o14","alg":"alg-b","fleet":null}`, http.StatusBadRequest},
		{"null fleet after fleet", `{"id":"o15","alg":"alg-b","fleet":` + qs + `,"fleet":null}`, http.StatusCreated},
		{"null checkpoint", `{"id":"o16","alg":"alg-b","fleet":` + qs + `,"checkpoint":null}`, http.StatusCreated},
		{"null checkpoint after checkpoint", `{"id":"o17","alg":"alg-b","fleet":` + qs +
			`,"checkpoint":{"slots":[{"lambda":1}]},"checkpoint":null}`, http.StatusCreated},
		{"null slots and records", `{"id":"o18","fleet":` + qs +
			`,"checkpoint":{"alg":"alg-b","slots":[null,{"lambda":null,"counts":null}]}}`, http.StatusCreated},
		{"null id", `{"id":null,"alg":"alg-b","fleet":` + qs + `}`, http.StatusCreated},
		{"generated id", `{"alg":"alg-a","fleet":` + qs + `}`, http.StatusCreated},
		{"trailing garbage", `{"id":"o19","alg":"alg-b","fleet":` + qs + `}x[`, http.StatusCreated},
		{"whitespace", " \t\r\n{ \"id\" : \"o20\" ,\n \"alg\":\"alg-b\", \"fleet\" : { \"scenario\" : \"quickstart\" } }\n",
			http.StatusCreated},
		// Manager-level rejections (wire-encoded error bodies).
		{"taken id", `{"id":"o1","alg":"alg-b","fleet":` + qs + `}`, http.StatusConflict},
		{"algorithm conflict", `{"id":"o21","alg":"alg-a","fleet":` + qs + `,"checkpoint":{"alg":"alg-b","slots":[]}}`,
			http.StatusBadRequest},
		{"counts above template", `{"id":"o22","fleet":` + qs + `,"checkpoint":{"alg":"alg-b","slots":[{"lambda":1,"counts":[9,3]}]}}`,
			http.StatusBadRequest},
		// Malformed bodies: the fallback must reproduce encoding/json's
		// exact error text.
		{"unknown top-level member", `{"id":"u1","alg":"alg-b","fleet":` + qs + `,"bogus":1}`, http.StatusBadRequest},
		{"unknown snapshot member", `{"id":"u2","alg":"alg-b","fleet":` + qs + `,"log_sum":7}`, http.StatusBadRequest},
		{"unknown fleet member", `{"id":"u3","alg":"alg-b","fleet":{"scenario":"quickstart","bogus":1}}`, http.StatusBadRequest},
		{"unknown inline type member", `{"id":"u4","alg":"alg-b","fleet":{"types":[{"name":"s","count":1,"bogus":1}]}}`,
			http.StatusBadRequest},
		{"unknown checkpoint member", `{"id":"u5","fleet":` + qs + `,"checkpoint":{"alg":"alg-b","slots":[],"state":"AQID"}}`,
			http.StatusBadRequest},
		{"costs in a slot record", `{"id":"u6","fleet":` + qs + `,"checkpoint":{"alg":"alg-b","slots":[{"lambda":1,"costs":[]}]}}`,
			http.StatusBadRequest},
		{"unknown slot member", `{"id":"u7","fleet":` + qs + `,"checkpoint":{"alg":"alg-b","slots":[{"lambda":1,"Bogus":{"a":[1]}}]}}`,
			http.StatusBadRequest},
		{"deep unknown member", `{"id":"u8","deep":` + deep + `}`, http.StatusBadRequest},
		{"wrong id type", `{"id":5}`, http.StatusBadRequest},
		{"wrong alg type", `{"alg":true}`, http.StatusBadRequest},
		{"wrong fleet type", `{"fleet":"quickstart"}`, http.StatusBadRequest},
		{"wrong seed type", `{"fleet":{"scenario":"quickstart","seed":"1"}}`, http.StatusBadRequest},
		{"fractional seed", `{"fleet":{"scenario":"quickstart","seed":1.5}}`, http.StatusBadRequest},
		{"wrong checkpoint type", `{"checkpoint":[]}`, http.StatusBadRequest},
		{"wrong slots type", `{"checkpoint":{"slots":{}}}`, http.StatusBadRequest},
		{"wrong lambda type", `{"checkpoint":{"slots":[{"lambda":"1"}]}}`, http.StatusBadRequest},
		{"wrong counts type", `{"checkpoint":{"slots":[{"counts":[1.5]}]}}`, http.StatusBadRequest},
		{"bare array", `[]`, http.StatusBadRequest},
		{"bare number", `5`, http.StatusBadRequest},
		{"float overflow", `{"checkpoint":{"slots":[{"lambda":1e309}]}}`, http.StatusBadRequest},
		{"int overflow", `{"checkpoint":{"slots":[{"counts":[9223372036854775808]}]}}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"truncated object", `{"id":"t1","alg":"alg-b"`, http.StatusBadRequest},
		{"truncated fleet", `{"id":"t2","fleet":{"scenario":"quick`, http.StatusBadRequest},
		{"truncated checkpoint", `{"id":"t3","checkpoint":{"slots":[{"lambda":1},`, http.StatusBadRequest},
		{"trailing comma", `{"id":"t4",}`, http.StatusBadRequest},
		{"invalid escape", `{"id":"t5\x"}`, http.StatusBadRequest},
		{"invalid fleet syntax", `{"id":"t6","fleet":{"scenario":tru}}`, http.StatusBadRequest},
	}
}

// TestHTTPOpenBodies is TestHTTPPushBodies for POST /v1/sessions: each
// body's response must be exactly the encoding/json path's — status, a
// JSON Content-Type, and the body down to encoding/json's error prose
// and the trailing newline. The oracle's manager and the server's see
// the same opens in the same order, so taken and generated ids agree.
func TestHTTPOpenBodies(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewManager(Options{})))
	defer srv.Close()
	oracle := &openOracle{t: t, m: NewManager(Options{})}

	oversize := `{"id":"big","fleet":{"types":[` + strings.Repeat(`{},`, maxOpenBody/3) + `{}]}}`
	cases := append(openCases(t),
		openCase{"oversize body", oversize, http.StatusRequestEntityTooLarge},
		openCase{"open after oversize", `{"id":"after","alg":"alg-b","fleet":{"scenario":"quickstart"}}`, http.StatusCreated})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus, wantBody := oracle.expect(tc.body)
			if wantStatus != tc.status {
				t.Fatalf("oracle: HTTP %d, want %d: %s", wantStatus, tc.status, wantBody)
			}
			resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			ct := resp.Header.Get("Content-Type")
			if resp.StatusCode != wantStatus || string(data) != wantBody || ct != "application/json" {
				t.Errorf("response diverged from encoding/json:\n got: %d %s %q\nwant: %d application/json %q",
					resp.StatusCode, ct, data, wantStatus, wantBody)
			}
		})
	}
}

// FuzzOpenRequest holds the open decoder to a strict json.Decoder into
// OpenRequest: for arbitrary bytes both accept or both reject, and what
// they accept decodes to deeply equal values — nil against empty slices
// included, the checkpoint's log in columns against json's records —
// with bit-identical demands. Run with
// `go test -fuzz FuzzOpenRequest ./internal/serve`; CI runs it for 30 s.
func FuzzOpenRequest(f *testing.F) {
	for _, tc := range openCases(f) {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got OpenRequest
		jerr := strictDecode(data, &want)
		werr := decodeOpenRequest(data, &got)
		if (werr == nil) != (jerr == nil) {
			t.Fatalf("%q: wire err=%v, json err=%v", data, werr, jerr)
		}
		if werr != nil {
			return
		}
		gotCP, wantCP := got.Checkpoint, want.Checkpoint
		got.Checkpoint, want.Checkpoint = nil, nil
		if !reflect.DeepEqual(got, want) || (gotCP == nil) != (wantCP == nil) {
			t.Fatalf("%q: wire decodes %+v, json %+v", data, got, want)
		}
		if gotCP == nil {
			return
		}
		// The wire decoder holds the log in columns; json.Decoder holds
		// the same records in Slots.
		if gotCP.Alg != wantCP.Alg || gotCP.Slots != nil || (gotCP.Log == nil) != (wantCP.Slots == nil) ||
			!reflect.DeepEqual(gotCP.Records(), wantCP.Slots) {
			t.Fatalf("%q: wire decodes checkpoint %+v, json %+v", data, gotCP, wantCP)
		}
		for i, s := range gotCP.Records() {
			if math.Float64bits(s.Lambda) != math.Float64bits(wantCP.Slots[i].Lambda) {
				t.Fatalf("%q: slot %d lambda %v, json %v", data, i, s.Lambda, wantCP.Slots[i].Lambda)
			}
		}
	})
}
