package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// sealedRef is serve.Snapshot as encoding/json sees it, log sum
// included, with the fleet descriptor raw.
type sealedRef struct {
	ID         string             `json:"id"`
	Fleet      json.RawMessage    `json:"fleet"`
	Checkpoint *stream.Checkpoint `json:"checkpoint"`
	State      []byte             `json:"state,omitempty"`
	LogSum     uint32             `json:"log_sum,omitempty"`
}

// splice encodes snap the way a store saves a resumed session: the first
// cut records as a span read back from an earlier save, the rest, held
// in columns as a session holds them, appended to it, the two spliced
// between head and trailer, sealed.
func splice(t *testing.T, snap *sealedRef, cut int) ([]byte, error) {
	t.Helper()
	slots := snap.Checkpoint.Slots
	span := EmptyLogSpan()
	b, err := AppendLogRecords(span.Bytes, slots[:cut], false)
	if err != nil {
		return nil, err
	}
	span = LogSpan{Bytes: b, Sum: EmptyLogSpan().Seal(b[1:], nil)}
	var cols stream.Log
	for _, r := range slots[cut:] {
		cols.Append(r)
	}
	tail, err := AppendLog(make([]byte, 0, LogLen(&cols)), &cols, cut > 0)
	if err != nil {
		return nil, err
	}
	if n := LogLen(&cols); len(tail) > n {
		t.Fatalf("LogLen bounds %d records at %d bytes, they take %d", len(slots)-cut, n, len(tail))
	}
	snap.LogSum = span.Seal(tail, snap.State)
	out := AppendSnapshotHead(nil, snap.ID, snap.Fleet, snap.Checkpoint.Alg)
	out = append(append(out, span.Bytes...), tail...)
	trailer := AppendSnapshotTrailer(nil, snap.State, snap.LogSum)
	if n := SnapshotTrailerLen(len(snap.State)); len(trailer) > n {
		t.Fatalf("SnapshotTrailerLen bounds a %d-byte state's trailer at %d bytes, it takes %d", len(snap.State), n, len(trailer))
	}
	return append(out, trailer...), nil
}

// checkSealedRead asserts the fast reader's contract on data: whenever
// it accepts, DecodeSnapshot accepts too, with the same id, fleet,
// algorithm, state and log, and a log sum that seals them.
func checkSealedRead(t *testing.T, data []byte) bool {
	t.Helper()
	ss, ok := ReadSealedSnapshot(data)
	if !ok {
		return false
	}
	var ws Snapshot
	if err := DecodeSnapshot(data, &ws); err != nil {
		t.Fatalf("%q: the fast reader accepts, DecodeSnapshot rejects: %v", data, err)
	}
	if ws.ID != ss.ID || !bytes.Equal(ws.Fleet, ss.Fleet) || ws.Checkpoint == nil || ws.Checkpoint.Alg != ss.Alg ||
		!bytes.Equal(ws.State, ss.State) || ws.LogSum != ss.Log.Seal(nil, ss.State) {
		t.Fatalf("%q: fast reader %+v, DecodeSnapshot %+v", data, ss, ws)
	}
	if cap(ss.Log.Bytes) != len(ss.Log.Bytes) {
		t.Fatalf("%q: the span's capacity reaches into the input", data)
	}
	l, err := DecodeLog(append(ss.Log.Bytes, ']'))
	if err != nil || !reflect.DeepEqual(l, ws.Checkpoint.Log) {
		t.Fatalf("%q: span decodes to %v (%v), DecodeSnapshot's log %v", data, l, err, ws.Checkpoint.Log)
	}
	return true
}

// FuzzSealedSnapshot is the resume fast path's proof. For arbitrary
// bytes, and for every one-byte flip of a sealed snapshot, whatever
// ReadSealedSnapshot accepts DecodeSnapshot accepts with equal id, fleet,
// algorithm, state and log. For arbitrary snapshots cut at any record,
// splicing a span and the records past it between AppendSnapshotHead and
// AppendSnapshotTrailer writes exactly json.Marshal's bytes of the whole
// snapshot, which the fast reader accepts. Run with
// `go test -fuzz FuzzSealedSnapshot ./internal/wire`; CI runs it for 30 s.
func FuzzSealedSnapshot(f *testing.F) {
	for _, n := range []int{0, 1, 200} {
		snap := realSnapshot(f, n)
		f.Add([]byte(nil), snap.ID, snap.Checkpoint.Alg, 1.5, snap.State, uint(n/2), uint(n*13))
	}
	f.Add([]byte(`{"id":"a","fleet":null,"checkpoint":{"slots":[]},"state":"AQ==","log_sum":1}`), "a", "", 2.0, []byte{1}, uint(0), uint(0))
	f.Add([]byte(`{"id":"a","fleet":null,"checkpoint":{"slots":[`), "a<b>", "alg\"x", 1e21, []byte("state"), uint(3), uint(77))
	f.Add([]byte(`}`), "", "", math.Copysign(0, -1), []byte{0}, uint(5), uint(1))
	f.Add([]byte(`{"id":"x","log_sum":7}`), "x", "y", math.Inf(1), []byte(nil), uint(1), uint(2))

	f.Fuzz(func(t *testing.T, data []byte, id, alg string, lambda float64, state []byte, cut, flip uint) {
		checkSealedRead(t, data)

		if len(state) == 0 {
			state = []byte{0}
		}
		fleet, err := json.Marshal(struct {
			Scenario string `json:"scenario"`
		}{id})
		if err != nil {
			t.Fatal(err)
		}
		snap := &sealedRef{ID: id, Fleet: fleet, State: state, Checkpoint: &stream.Checkpoint{Alg: alg, Slots: []stream.SlotRecord{
			{Lambda: lambda},
			{Lambda: -lambda, Counts: []int{}},
			{Lambda: lambda * 1e-9, Counts: []int{len(id), -len(alg), 0}},
			{Lambda: math.Copysign(0, -1)},
			{Lambda: lambda * 1e25},
		}}}
		spliced, err := splice(t, snap, int(cut%uint(len(snap.Checkpoint.Slots)+1)))
		want, jerr := json.Marshal(snap)
		if (err != nil) != (jerr != nil) {
			t.Fatalf("splice err=%v, json err=%v", err, jerr)
		}
		if jerr != nil {
			return
		}
		if !bytes.Equal(spliced, want) {
			t.Fatalf("spliced %q != json %q", spliced, want)
		}
		whole, err := AppendSnapshot(nil, &Snapshot{ID: id, Fleet: fleet, Checkpoint: snap.Checkpoint, State: state, LogSum: snap.LogSum})
		if err != nil || !bytes.Equal(whole, want) {
			t.Fatalf("AppendSnapshot %q (%v) != json %q", whole, err, want)
		}
		if snap.LogSum != 0 && !checkSealedRead(t, spliced) {
			t.Fatalf("the fast reader rejects the sealed %q", spliced)
		}
		flipped := bytes.Clone(spliced)
		flipped[int(flip%uint(len(flipped)))] ^= 1 << (flip / uint(len(flipped)) % 8)
		checkSealedRead(t, flipped)
	})
}
