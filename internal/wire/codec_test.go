package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// refDecode is the reference decoder the wire scanner must agree with:
// a strict json.Decoder exactly as internal/serve's decodeStrict
// configures it (DisallowUnknownFields, single Decode call, trailing
// data ignored).
func refDecode(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func checkEncode(t *testing.T, name string, got []byte, gotErr error, val any) {
	t.Helper()
	want, wantErr := json.Marshal(val)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: wire err=%v, json err=%v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: wire %q != json %q", name, got, want)
	}
}

func TestAppendStringMatchesJSON(t *testing.T) {
	cases := []string{
		"", "plain", "with space", `quote " backslash \`,
		"tab\tnewline\ncr\rbell\abs\bff\f",
		"\x00\x01\x1f\x7f",
		"html <b>&amp;</b>",
		"unicode é ſ 世界 🚀",
		"line sep   par sep  ",
		"invalid \xff\xfe utf8", "truncated \xc3", "lone cont \x80",
		"mixed \xed\xa0\x80 surrogate bytes",
	}
	for b := 0; b < 256; b++ {
		cases = append(cases, "x"+string(rune(b)), string([]byte{byte(b)}))
	}
	for _, s := range cases {
		got := AppendString(nil, s)
		checkEncode(t, "AppendString", got, nil, s)
	}
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-6, 9.9e-7, 1e-7,
		1e20, 1e21, 1.5e21, -1e21, 1e-300, 1e300, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi, 1.0 / 3.0,
		123456.789, 2628267.25, 1e6, 48, 0.1,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		cases = append(cases,
			rng.NormFloat64(),
			math.Float64frombits(rng.Uint64()),
			rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(640)-320)),
		)
	}
	for _, f := range cases {
		got, err := AppendFloat(nil, f)
		checkEncode(t, "AppendFloat", got, err, f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Fatalf("AppendFloat(%v): expected error", f)
		}
	}
}

func testAdvisories() []*stream.Advisory {
	return []*stream.Advisory{
		{},
		{Slot: 1, Lambda: 3.5, Config: []int{2, 0, 1}, Active: 3,
			Operating: 12.25, Switching: 4, CumCost: 100.5,
			Opt: 90.25, Ratio: 1.1135, Pending: 2},
		{Slot: 48, Lambda: 0, Config: []int{}, Active: 0,
			Operating: 0.3333333333333333, Switching: -0, CumCost: 1e-9},
		{Slot: -3, Lambda: 1e21, Config: nil, Active: 1 << 40,
			Operating: 5e-324, Switching: math.MaxFloat64, CumCost: -1e-7},
	}
}

func TestEncodeMatchesJSON(t *testing.T) {
	for _, adv := range testAdvisories() {
		got, err := AppendAdvisory(nil, adv)
		checkEncode(t, "AppendAdvisory", got, err, adv)

		for _, res := range []PushResult{{Decided: false}, {Decided: true, Advisory: adv}} {
			got, err := AppendPushResult(nil, &res)
			checkEncode(t, "AppendPushResult", got, err, res)
		}
	}

	batches := [][]PushResult{
		nil,
		{},
		{{Decided: true, Advisory: testAdvisories()[1]}, {Decided: false}},
	}
	for _, batch := range batches {
		got, err := AppendPushResults(nil, batch)
		checkEncode(t, "AppendPushResults", got, err, batch)

		bgot, berr := AppendBatchError(nil, "session sess-1: slot 3: bad", batch)
		bwant := struct {
			Error   string       `json:"error"`
			Results []PushResult `json:"results"`
		}{"session sess-1: slot 3: bad", batch}
		checkEncode(t, "AppendBatchError", bgot, berr, bwant)
	}

	for _, msg := range []string{"", "unknown session", `odd "msg" <&>`, "bad \xff"} {
		got := AppendError(nil, msg)
		want := struct {
			Error string `json:"error"`
		}{msg}
		checkEncode(t, "AppendError", got, nil, want)
	}

	reqs := []PushRequest{
		{},
		{Lambda: 2.5},
		{Lambda: -0.25, Counts: []int{4, 0, 9}},
		{Counts: []int{}},
	}
	for _, req := range reqs {
		got, err := AppendPushRequest(nil, &req)
		checkEncode(t, "AppendPushRequest", got, err, req)
	}
	for _, batch := range [][]PushRequest{nil, {}, reqs} {
		got, err := AppendPushRequests(nil, batch)
		checkEncode(t, "AppendPushRequests", got, err, batch)
	}

	// Non-finite floats must fail exactly where json.Marshal fails.
	bad := &stream.Advisory{Lambda: math.NaN()}
	if _, err := AppendAdvisory(nil, bad); err == nil {
		t.Fatal("AppendAdvisory(NaN): expected error")
	}
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("json.Marshal(NaN): expected error")
	}
}

// decodeCases is the decode-parity corpus: every probed corner of the
// strict reference decoder. Each input is checked for accept/reject and
// value agreement in both single and batch form by
// TestDecodeMatchesJSON (and fuzzed further by FuzzWireCodec).
var decodeCases = []string{
	// Plain valid inputs.
	`{}`, `{"lambda":1.5}`, `{"lambda":1.5,"counts":[3,1]}`,
	`{"counts":[],"lambda":0}`, ` { "lambda" : 2 , "counts" : [ 1 , 2 ] } `,
	`[]`, `[{"lambda":1}]`, `[{"lambda":1},{"lambda":2,"counts":[5]}]`,
	`[{},null,{}]`, `null`, `  null  `,
	// Case folding and escaped keys.
	`{"Lambda":1}`, `{"LAMBDA":1}`, `{"lAmBdA":1}`, `{"countſ":[1]}`,
	`{"lambda":1}`, `{"Lambda":1}`, `{"ſ":1}`,
	"{\"lambda\x00\":1}", `{"count😀":[1]}`, `{"count\uD800s":[1]}`,
	// Null no-ops and duplicate-key merges.
	`{"lambda":null}`, `{"counts":null}`, `{"lambda":1,"lambda":null}`,
	`{"counts":[9],"counts":[null]}`, `{"counts":[9],"counts":null}`,
	`{"counts":[1,2,3],"counts":[7]}`, `{"counts":[1],"counts":[null,null]}`,
	`{"counts":[9],"counts":[]}`, `{"lambda":1,"lambda":2}`,
	`{"counts":[1,2,3],"counts":[5],"counts":[null,null]}`,
	`{"counts":[1,2],"counts":[],"counts":[null]}`,
	`[null]`, `[null,null]`,
	// Number edge cases.
	`{"lambda":-0}`, `{"lambda":1e-999}`, `{"lambda":1e309}`, `{"lambda":-1e309}`,
	`{"lambda":1e999}`, `{"lambda":5e-324}`, `{"lambda":1E+2}`, `{"lambda":0.5e1}`,
	`{"lambda":01}`, `{"lambda":.5}`, `{"lambda":+1}`, `{"lambda":1.}`,
	`{"lambda":1.e5}`, `{"lambda":-}`, `{"lambda":0x10}`, `{"lambda":Infinity}`,
	`{"lambda":NaN}`, `{"lambda":1_000}`, `{"lambda":1e}`, `{"lambda":1e+}`,
	`{"counts":[-0]}`, `{"counts":[1.0]}`, `{"counts":[1e2]}`,
	`{"counts":[9223372036854775807]}`, `{"counts":[9223372036854775808]}`,
	`{"counts":[-9223372036854775808]}`, `{"counts":[-9223372036854775809]}`,
	// Type mismatches.
	`{"lambda":"1"}`, `{"lambda":true}`, `{"lambda":[1]}`, `{"lambda":{}}`,
	`{"counts":"x"}`, `{"counts":1}`, `{"counts":[true]}`, `{"counts":[[1]]}`,
	`{"counts":[{}]}`, `{"counts":["1"]}`, `[1]`, `["x"]`, `[true]`, `[[]]`,
	`{"x":1}`, `{"":1}`, `true`, `false`, `12`, `"str"`,
	// Unknown fields (strict mode).
	`{"bogus":1}`, `{"lambda":1,"bogus":2}`, `{"bogus":1,"lambda":1}`,
	`{"lambdas":1}`, `{"lamb":1}`, `{"lambda ":1}`, `{" lambda":1}`,
	// Trailing data after the top-level value (ignored by the reference).
	`{}x`, `{} x`, `{"lambda":1}]`, `[]]`, `[]{}`, `nullx`, `nulll`, `null null`,
	`{"lambda":1}{"lambda":2}`,
	// Syntax errors and truncation.
	``, ` `, `{`, `}`, `{]`, `[}`, `[`, `]`, `{,}`, `[,]`, `[{},]`, `{"lambda":1,}`,
	`{"lambda"}`, `{"lambda":}`, `{"lambda":1 "counts":[]}`, `{lambda:1}`,
	`{'lambda':1}`, `{"lambda":1;}`, `{"lambda":nul}`, `{"lambda":nullx}`,
	`{"lambda":12x}`, `{"lambda`, `{"lambda\`, `{"lambda\u00`, `{"lambda\x61":1}`,
	"{\"lam\x01bda\":1}", `{"lambda":1`, `[{"lambda":1}`, `[{"lambda":1},`,
	`nul`, `n`, `nuLl`, `[nul]`, `[nulll]`, `{"counts":[1,]}`, `{"counts":[1`,
	`{"counts":[1,2`, `{"counts":[01]}`,
	// Raw invalid UTF-8 inside strings (scanner passes bytes >= 0x20).
	"{\"lambda\xff\":1}", "{\"\xff\":1}",
	// Very long unknown key (exceeds the unquote scratch buffer).
	`{"` + `abcd` + `abcdefghijklmnopqrstuvwxyz0123456789` +
		`abcdefghijklmnopqrstuvwxyz0123456789` + `":1}`,
}

func checkDecodeParity(t *testing.T, data []byte) {
	t.Helper()

	var wreq, jreq PushRequest
	werr := DecodePushRequest(data, &wreq)
	jerr := refDecode(data, &jreq)
	if (werr == nil) != (jerr == nil) {
		t.Fatalf("single %q: wire err=%v, json err=%v", data, werr, jerr)
	}
	if werr == nil {
		if math.Float64bits(wreq.Lambda) != math.Float64bits(jreq.Lambda) {
			t.Fatalf("single %q: wire lambda=%v, json lambda=%v", data, wreq.Lambda, jreq.Lambda)
		}
		if !reflect.DeepEqual(wreq.Counts, jreq.Counts) {
			t.Fatalf("single %q: wire counts=%#v, json counts=%#v", data, wreq.Counts, jreq.Counts)
		}
	}

	var wbatch, jbatch []PushRequest
	werr = DecodePushRequests(data, &wbatch)
	jerr = refDecode(data, &jbatch)
	if (werr == nil) != (jerr == nil) {
		t.Fatalf("batch %q: wire err=%v, json err=%v", data, werr, jerr)
	}
	if werr == nil {
		if len(wbatch) != len(jbatch) || (wbatch == nil) != (jbatch == nil) {
			t.Fatalf("batch %q: wire %#v, json %#v", data, wbatch, jbatch)
		}
		for i := range wbatch {
			if math.Float64bits(wbatch[i].Lambda) != math.Float64bits(jbatch[i].Lambda) ||
				!reflect.DeepEqual(wbatch[i].Counts, jbatch[i].Counts) {
				t.Fatalf("batch %q: wire %#v, json %#v", data, wbatch, jbatch)
			}
		}
	}
}

func TestDecodeMatchesJSON(t *testing.T) {
	for _, tc := range decodeCases {
		checkDecodeParity(t, []byte(tc))
	}
}

// TestDecodeMerge pins the in-place merge semantics DecodePushRequest
// shares with json.Decoder when the target is not zero (serve always
// passes zero targets, but the contract is part of the parity claim).
func TestDecodeMerge(t *testing.T) {
	for _, tc := range []string{
		`{"lambda":null}`, `{"counts":null}`, `{"counts":[null,7]}`,
		`{"counts":[]}`, `{}`, `null`, `{"lambda":9}`,
	} {
		wreq := PushRequest{Lambda: 1.5, Counts: []int{4, 5, 6}}
		jreq := PushRequest{Lambda: 1.5, Counts: []int{4, 5, 6}}
		werr := DecodePushRequest([]byte(tc), &wreq)
		jerr := refDecode([]byte(tc), &jreq)
		if (werr == nil) != (jerr == nil) {
			t.Fatalf("%q: wire err=%v, json err=%v", tc, werr, jerr)
		}
		if werr == nil && (math.Float64bits(wreq.Lambda) != math.Float64bits(jreq.Lambda) ||
			!reflect.DeepEqual(wreq.Counts, jreq.Counts)) {
			t.Fatalf("%q: wire %#v, json %#v", tc, wreq, jreq)
		}
	}
}

func TestDecodeAllocs(t *testing.T) {
	data := []byte(`{"lambda":3.25}`)
	allocs := testing.AllocsPerRun(200, func() {
		var req PushRequest
		if err := DecodePushRequest(data, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodePushRequest allocs/op = %v, want 0", allocs)
	}
}

func TestEncodeAllocs(t *testing.T) {
	adv := testAdvisories()[1]
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf = buf[:0]
		if buf, err = AppendPushResult(buf, &PushResult{Decided: true, Advisory: adv}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendPushResult allocs/op = %v, want 0", allocs)
	}
}
