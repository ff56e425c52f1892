package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/stream"
)

// refSnapshot is serve.Snapshot as encoding/json sees it, with the
// fleet descriptor kept raw as the wire codec keeps it.
type refSnapshot struct {
	ID         string             `json:"id"`
	Fleet      json.RawMessage    `json:"fleet"`
	Checkpoint *stream.Checkpoint `json:"checkpoint"`
	State      []byte             `json:"state,omitempty"`
}

// wire returns r in the wire codec's form, its checkpoint's log in
// columns as DecodeSnapshot leaves it.
func (r *refSnapshot) wire() *Snapshot {
	s := &Snapshot{ID: r.ID, Fleet: r.Fleet, Checkpoint: r.Checkpoint, State: r.State}
	if cp := r.Checkpoint; cp != nil {
		s.Checkpoint = &stream.Checkpoint{Alg: cp.Alg, Log: columns(cp.Slots)}
	}
	return s
}

// columns holds records in columns, nil for nil records. Elements past
// the records' length within their capacity are carried over too, past
// the columns' length, so a decoder merging into the columns re-exposes
// what encoding/json re-exposes merging into the records.
func columns(recs []stream.SlotRecord) *stream.Log {
	if recs == nil {
		return nil
	}
	var l stream.Log
	for _, r := range recs[:cap(recs)] {
		l.Append(r)
	}
	l.Lambda = l.Lambda[:len(recs)]
	if l.Counts != nil {
		l.Counts = l.Counts[:len(recs)]
	}
	return &l
}

// sameCheckpoint reports whether got, a checkpoint the wire decoder
// filled, holds what json.Unmarshal decoded into want: the algorithm,
// a log in columns exactly when want's Slots are non-nil, and the same
// records, nil against empty counts included and demands bit for bit.
func sameCheckpoint(got, want *stream.Checkpoint) bool {
	if got == nil || want == nil {
		return got == want
	}
	if got.Alg != want.Alg || got.Slots != nil || (got.Log == nil) != (want.Slots == nil) {
		return false
	}
	recs := got.Records()
	if !reflect.DeepEqual(recs, want.Slots) {
		return false
	}
	for i := range recs {
		if math.Float64bits(recs[i].Lambda) != math.Float64bits(want.Slots[i].Lambda) {
			return false
		}
	}
	return true
}

// realSnapshot runs a quickstart alg-b session over n slots of its
// trace and captures it as the daemon's store does: replay log plus
// saved state.
func realSnapshot(tb testing.TB, n int) *refSnapshot {
	tb.Helper()
	sc, ok := engine.Lookup("quickstart")
	if !ok {
		tb.Fatal("quickstart scenario missing")
	}
	ins := sc.Instance(1)
	sess, err := engine.OpenSession("alg-b", ins.Types, stream.Options{Alg: "alg-b"})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sess.FeedDemand(ins.Lambda[i%len(ins.Lambda)]); err != nil {
			tb.Fatal(err)
		}
	}
	return &refSnapshot{
		ID:         "web-1",
		Fleet:      json.RawMessage(`{"scenario":"quickstart","seed":1}`),
		Checkpoint: sess.Checkpoint(),
		State:      sess.AppendState(nil),
	}
}

// prefilled returns a non-zero decode target (a fresh copy per call):
// both decoders merge into what a target already holds, so the fuzz
// checks their merge rules too — element reuse within capacity, null
// no-ops, pointer reuse.
func prefilled() *refSnapshot {
	backing := []stream.SlotRecord{
		{Lambda: 1, Counts: []int{4, 5}}, {Lambda: 7, Counts: []int{8, 9, 10}}, {Lambda: 3}, {}, {},
	}
	return &refSnapshot{
		ID:         "old",
		Fleet:      json.RawMessage(`{"old":true}`),
		Checkpoint: &stream.Checkpoint{Alg: "old-alg", Slots: backing[:1]},
		State:      []byte{1, 2, 3},
	}
}

// checkSnapshotDecode decodes data with both decoders into equal
// targets. Whatever the wire decoder accepts, json.Unmarshal must
// accept with a bit-identical value; whatever json.Unmarshal rejects,
// the wire decoder must reject.
func checkSnapshotDecode(t *testing.T, data []byte, target func() *refSnapshot) {
	t.Helper()
	ref := target()
	jerr := json.Unmarshal(data, ref)
	got := target().wire()
	werr := DecodeSnapshot(data, got)
	if werr != nil {
		return
	}
	if jerr != nil {
		t.Fatalf("%q: wire accepts, json rejects: %v", data, jerr)
	}
	if got.ID != ref.ID || !bytes.Equal(got.Fleet, ref.Fleet) || (got.Fleet == nil) != (ref.Fleet == nil) ||
		!reflect.DeepEqual(got.State, ref.State) || !sameCheckpoint(got.Checkpoint, ref.Checkpoint) {
		t.Fatalf("%q: wire decodes %+v, json %+v", data, got, ref)
	}
}

// checkSnapshotEncode asserts AppendSnapshot(snap) == json.Marshal(snap)
// byte for byte (or that both fail), with the log as records and in
// columns, and that both json.Marshal and json.MarshalIndent output
// decode as json.Unmarshal decodes them.
func checkSnapshotEncode(t *testing.T, snap *refSnapshot) {
	t.Helper()
	want, jerr := json.Marshal(snap)
	for _, ws := range []*Snapshot{{ID: snap.ID, Fleet: snap.Fleet, Checkpoint: snap.Checkpoint, State: snap.State}, snap.wire()} {
		got, werr := AppendSnapshot(nil, ws)
		if (werr != nil) != (jerr != nil) {
			t.Fatalf("encode: wire err=%v, json err=%v", werr, jerr)
		}
		if jerr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encode: wire %q != json %q", got, want)
		}
	}
	if jerr != nil {
		return
	}
	indented, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{want, indented} {
		var w Snapshot
		if err := DecodeSnapshot(data, &w); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
		checkSnapshotDecode(t, data, func() *refSnapshot { return new(refSnapshot) })
	}
}

// FuzzSnapshotCodec is the snapshot codec's differential proof against
// encoding/json. For arbitrary bytes, the wire decoder accepts only
// what json.Unmarshal accepts and decodes it to the same value, into a
// zero and into a prefilled target. For arbitrary snapshots — demands
// in both float forms and -0, nil, empty and non-empty counts, escaped
// ids and algorithm names, any state — the encoder writes exactly
// json.Marshal's bytes, and json.Marshal and json.MarshalIndent output
// decode back. Run with `go test -fuzz FuzzSnapshotCodec ./internal/wire`;
// CI runs it for 30 s.
func FuzzSnapshotCodec(f *testing.F) {
	for _, n := range []int{0, 1, 2000} {
		snap := realSnapshot(f, n)
		compact, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		indented, err := json.MarshalIndent(snap, "", " ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact, snap.ID, snap.Checkpoint.Alg, 1.5, snap.State)
		f.Add(indented, snap.ID, snap.Checkpoint.Alg, 1.5, snap.State)
	}
	for _, data := range []string{
		`null`, `{}`, ` { } `, `{"id":"hurt"}`, `{"checkpoint":null}`, `[]`, `5`, `"x"`,
		`{"id":"a"}x`, `{"id":"a"} `, `{"id":"a",}`, `{"id":"a"`, ``,
		`{"ID":"fold","Checkpoint":{"ALG":"b","SLOTS":[{"LAMBDA":1,"COUNTS":[2]}]}}`,
		`{"id":"a","id":"b","checkpoint":{"alg":"x"},"checkpoint":{"slots":[]}}`,
		`{"checkpoint":{"slots":[{"lambda":1,"counts":[1,2,3]},{"lambda":2}]},"checkpoint":{"slots":[null,{"counts":[null]}]}}`,
		`{"checkpoint":{"slots":[{"lambda":1}],"slots":null}}`,
		`{"checkpoint":{"slots":[{"lambda":1,"costs":[1],"extra":{"a":[true,false,null,1e5,"s"]}}]}}`,
		`{"unknown":[[[[{}]]]],"id":"u"}`, `{"unknown":tru}`, `{"unknown":[1,]}`, `{"unknown":{"a"}}`,
		`{"state":"AQID"}`, `{"state":"AQ\nID"}`, `{"state":"AQID"}`, `{"state":""}`,
		`{"state":null}`, `{"state":"!!"}`, `{"state":[1,2]}`, `{"state":"AQI"}`,
		`{"fleet":null}`, `{"fleet":{"types":[{"name":"a<b"}]},"fleet":7}`, `{"fleet":}`,
		`{"id":"🚀\ud800xé","checkpoint":{"alg":"a\"b"}}`, "{\"id\":\"\xff\xfe\"}",
		`{"checkpoint":{"slots":[{"lambda":1e-999},{"lambda":-0},{"lambda":1e309}]}}`,
		`{"checkpoint":{"slots":[{"lambda":"1"}]}}`, `{"checkpoint":{"slots":{}}}`, `{"checkpoint":[]}`,
		`{"id":5}`, `{"checkpoint":{"slots":[{"counts":[1.5]}]}}`,
	} {
		f.Add([]byte(data), "id", "alg-b", 2.0, []byte(nil))
	}
	// encoding/json's scanner allows 10 000 levels of nesting, the
	// top-level object included.
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		deep := `{"u":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		f.Add([]byte(deep), "id", "alg-b", 2.0, []byte(nil))
	}
	f.Add([]byte(`{}`), "a<b>&\x00\xff", "alg\"\\ ", 1e-7, []byte{0})
	f.Add([]byte(`{}`), "", "", math.Copysign(0, -1), []byte{})
	f.Add([]byte(`{}`), "x", "y", 1e21, []byte("state"))
	f.Add([]byte(`{}`), "x", "y", math.Inf(1), []byte(nil))

	f.Fuzz(func(t *testing.T, data []byte, id, alg string, lambda float64, state []byte) {
		checkSnapshotDecode(t, data, func() *refSnapshot { return new(refSnapshot) })
		checkSnapshotDecode(t, data, prefilled)

		fleet, err := json.Marshal(struct {
			Scenario string `json:"scenario"`
		}{id})
		if err != nil {
			t.Fatal(err)
		}
		slots := []stream.SlotRecord{
			{Lambda: lambda},
			{Lambda: -lambda, Counts: []int{}},
			{Lambda: lambda * 1e-9, Counts: []int{len(id), -len(alg), 0}},
			{Lambda: math.Copysign(0, -1)},
			{Lambda: lambda * 1e25},
		}
		for _, snap := range []*refSnapshot{
			{ID: id, Fleet: fleet, Checkpoint: &stream.Checkpoint{Alg: alg, Slots: slots}, State: state},
			{ID: id, Checkpoint: &stream.Checkpoint{Slots: slots[:1]}},
			{ID: id, Fleet: fleet, Checkpoint: &stream.Checkpoint{Alg: alg, Slots: []stream.SlotRecord{}}},
			{ID: id, Fleet: fleet, Checkpoint: &stream.Checkpoint{Alg: alg}},
			{ID: id, State: state},
		} {
			checkSnapshotEncode(t, snap)
		}
	})
}

// A log json.MarshalIndent wrote — the store's format before the wire
// codec — decodes to the same snapshot as its compact form, and
// re-encodes to json.Marshal's bytes.
func TestDecodeSnapshotLegacyIndented(t *testing.T) {
	snap := realSnapshot(t, 2000)
	compact, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var fromCompact, fromIndented Snapshot
	if err := DecodeSnapshot(compact, &fromCompact); err != nil {
		t.Fatal(err)
	}
	if err := DecodeSnapshot(indented, &fromIndented); err != nil {
		t.Fatal(err)
	}
	if !sameCheckpoint(fromCompact.Checkpoint, snap.Checkpoint) || !bytes.Equal(fromCompact.State, snap.State) {
		t.Fatal("compact snapshot decodes to another log or state")
	}
	if !sameCheckpoint(fromIndented.Checkpoint, snap.Checkpoint) || !bytes.Equal(fromIndented.State, snap.State) {
		t.Fatal("indented snapshot decodes to another log or state")
	}
	var fleet bytes.Buffer
	if err := json.Compact(&fleet, fromIndented.Fleet); err != nil {
		t.Fatal(err)
	}
	fromIndented.Fleet = fleet.Bytes()
	again, err := AppendSnapshot(nil, &fromIndented)
	if err != nil || !bytes.Equal(again, compact) {
		t.Fatalf("re-encoded indented snapshot differs from json.Marshal (err=%v)", err)
	}
}
