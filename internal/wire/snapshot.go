package wire

import (
	"encoding/base64"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/stream"
)

// The snapshot store's codec: a stored session is one JSON object, the
// same document json.Marshal makes of serve.Snapshot, so a snapshot
// file stays readable by any JSON tool and by encoding/json itself.
// The fleet descriptor is the one sub-value this codec does not own: it
// arrives encoded (the serving layer marshals its small tagged union
// with encoding/json) and leaves as its raw bytes. Everything else —
// the id, the replay log, the base64 state and the log sum — is encoded
// and decoded here without reflection. FuzzSnapshotCodec holds both
// directions to encoding/json.
//
// The replay log is the one part that grows with a session's age, so
// the store also handles it as bytes. The log sum seals the log's
// stored bytes to the state: it is the CRC-32 of the "slots" array
// without its closing bracket (a LogSpan), extended by the raw state.
// ReadSealedSnapshot reads a stored snapshot whose sum matches without
// decoding its log, and a writer extends a span by the records fed
// since (AppendLogRecords) and splices span and records between
// AppendSnapshotHead and AppendSnapshotTrailer — byte-identical to
// AppendSnapshot of the whole decoded log (FuzzSealedSnapshot).

// Snapshot is serve.Snapshot with its fleet descriptor as raw JSON.
type Snapshot struct {
	ID string
	// Fleet is the descriptor's JSON value. AppendSnapshot copies it
	// verbatim, so it must be what json.Marshal produces (compact,
	// HTML-escaped); empty encodes as null. DecodeSnapshot sets it to
	// the bytes of the last "fleet" member, aliasing its input.
	Fleet      []byte
	Checkpoint *stream.Checkpoint
	State      []byte
	// LogSum seals the stored log to State (LogSpan.Seal); 0 is none.
	LogSum uint32
}

// A LogSpan is a stored replay log as its bytes: the "slots" array
// without its closing bracket — "[" and the records, comma-separated —
// so more records append to it, and Sum, the CRC-32 of those bytes.
//
// The sum is the IEEE CRC-32, not the state codec's CRC-32C: a state
// ends in its own CRC-32C, and a CRC-32C run on over a message and its
// CRC-32C comes out the same for every message of that length, so a
// CRC-32C seal could not tell one state from another.
type LogSpan struct {
	Bytes []byte
	Sum   uint32
}

// EmptyLogSpan returns the span of a log with no records.
func EmptyLogSpan() LogSpan {
	return LogSpan{Bytes: []byte{'['}, Sum: crc32.ChecksumIEEE([]byte{'['})}
}

// Seal returns the log sum of the span followed by more, records
// AppendLogRecords encoded after it, bound to a state: the CRC-32 of
// the span, more and the state's bytes.
func (sp LogSpan) Seal(more, state []byte) uint32 {
	return crc32.Update(crc32.Update(sp.Sum, crc32.IEEETable, more), crc32.IEEETable, state)
}

// AppendLogRecords appends recs as they follow the records already in a
// span (a comma before each one when more is true, and before every one
// but the first otherwise): the stored form AppendSnapshot gives them.
// Non-finite demands report ErrUnsupportedValue.
func AppendLogRecords(dst []byte, recs []stream.SlotRecord, more bool) ([]byte, error) {
	for i := range recs {
		var err error
		if dst, err = appendLogRecord(dst, recs[i].Lambda, recs[i].Counts, more || i > 0); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendLog is AppendLogRecords of the records of a log held in
// columns, read from the columns.
func AppendLog(dst []byte, l *stream.Log, more bool) ([]byte, error) {
	for i, lambda := range l.Lambda {
		var counts []int
		if l.Counts != nil {
			counts = l.Counts[i]
		}
		var err error
		if dst, err = appendLogRecord(dst, lambda, counts, more || i > 0); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendLogRecord appends one record, after a comma when comma is set.
func appendLogRecord(dst []byte, lambda float64, counts []int, comma bool) ([]byte, error) {
	if comma {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"lambda":`...)
	dst, err := AppendFloat(dst, lambda)
	if err != nil {
		return dst, err
	}
	if len(counts) > 0 {
		dst = append(dst, `,"counts":`...)
		dst = appendInts(dst, counts)
	}
	return append(dst, '}'), nil
}

// LogLen bounds from above what AppendLog appends for l, so a caller
// can size its buffer once.
func LogLen(l *stream.Log) int {
	const maxFloat, maxInt = len("-2.2250738585072014e-308"), len("-9223372036854775808")
	n := l.Len() * (len(`,{"lambda":}`) + maxFloat)
	for _, c := range l.Counts {
		if len(c) > 0 {
			n += len(`,"counts":[]`) + len(c)*(maxInt+1)
		}
	}
	return n
}

// AppendSnapshotHead appends the stored form of a snapshot up to its
// log: everything before the "slots" array. A span, any records past
// it and AppendSnapshotTrailer complete it.
func AppendSnapshotHead(dst []byte, id string, fleet []byte, alg string) []byte {
	dst = appendSnapshotOpen(dst, id, fleet)
	return appendCheckpointOpen(dst, alg)
}

// AppendSnapshotTrailer appends what follows a stored snapshot's log
// records: the closing bracket of the array and brace of the checkpoint,
// then the state and log sum members and the snapshot's closing brace.
// It appends at most SnapshotTrailerLen(len(state)) bytes.
func AppendSnapshotTrailer(dst []byte, state []byte, sum uint32) []byte {
	return appendSnapshotClose(append(dst, ']', '}'), state, sum)
}

// SnapshotTrailerLen bounds from above what AppendSnapshotTrailer
// appends for a state of n bytes.
func SnapshotTrailerLen(n int) int {
	return len(`]},"state":"","log_sum":4294967295}`) + base64.StdEncoding.EncodedLen(n)
}

// appendSnapshotOpen appends the members before the checkpoint.
func appendSnapshotOpen(dst []byte, id string, fleet []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = AppendString(dst, id)
	dst = append(dst, `,"fleet":`...)
	if len(fleet) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, fleet...)
	}
	return append(dst, `,"checkpoint":`...)
}

// appendCheckpointOpen appends a checkpoint object up to its log.
func appendCheckpointOpen(dst []byte, alg string) []byte {
	dst = append(dst, '{')
	if alg != "" {
		dst = append(dst, `"alg":`...)
		dst = AppendString(dst, alg)
		dst = append(dst, ',')
	}
	return append(dst, `"slots":`...)
}

// appendSnapshotClose appends the members after the checkpoint and the
// closing brace.
func appendSnapshotClose(dst, state []byte, sum uint32) []byte {
	if len(state) > 0 {
		dst = append(dst, `,"state":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, state)
		dst = append(dst, '"')
	}
	if sum != 0 {
		dst = append(dst, `,"log_sum":`...)
		dst = strconv.AppendUint(dst, uint64(sum), 10)
	}
	return append(dst, '}')
}

// AppendSnapshot appends snap as a JSON object, byte-identical to
// json.Marshal of serve.Snapshot: {"id","fleet","checkpoint"}, then
// "state" (base64) when non-empty and "log_sum" when non-zero. The
// checkpoint holds "alg" when set and the replay log, each slot's
// in-memory cost functions omitted as their `json:"-"` tag omits them.
// A checkpoint whose log is in columns (stream.Checkpoint.Log) encodes
// as json.Marshal encodes the same records as Slots. Non-finite demands
// report ErrUnsupportedValue, exactly where json.Marshal fails.
func AppendSnapshot(dst []byte, snap *Snapshot) ([]byte, error) {
	dst = appendSnapshotOpen(dst, snap.ID, snap.Fleet)
	cp := snap.Checkpoint
	switch {
	case cp == nil:
		dst = append(dst, "null"...)
	case cp.Slots == nil && cp.Log == nil:
		dst = append(appendCheckpointOpen(dst, cp.Alg), "null}"...)
	default:
		dst = append(appendCheckpointOpen(dst, cp.Alg), '[')
		var err error
		if cp.Log != nil {
			dst, err = AppendLog(dst, cp.Log, false)
		} else {
			dst, err = AppendLogRecords(dst, cp.Slots, false)
		}
		if err != nil {
			return dst, err
		}
		return AppendSnapshotTrailer(dst, snap.State, snap.LogSum), nil
	}
	return appendSnapshotClose(dst, snap.State, snap.LogSum), nil
}

// DecodeSnapshot decodes a stored snapshot (or null) into dst. Unlike
// the push decoders it follows json.Unmarshal, not the strict request
// decoder: the whole input must be one JSON value plus whitespace,
// unknown members are skipped (after checking their syntax), and any
// whitespace layout is accepted, so files json.MarshalIndent wrote load
// too. Every input it accepts, json.Unmarshal accepts and decodes to
// the same value, with json's field folding, null and merge rules, and
// every input json.Unmarshal rejects, it rejects. The one form it
// rejects beyond those is a state written as an array of byte values
// rather than base64, which no encoder writes. The checkpoint's log is
// decoded into columns (stream.Checkpoint.Log, see logValue), holding
// the records json.Unmarshal decodes into Slots.
func DecodeSnapshot(data []byte, dst *Snapshot) error {
	d := decoder{data: data}
	d.skipWS()
	var err error
	switch c, _ := d.peek(); c {
	case '{':
		err = d.snapshotObject(dst)
	case 'n':
		err = d.null()
	default:
		err = d.fail("expected object or null")
	}
	if err != nil {
		return err
	}
	if d.skipWS(); d.pos != len(d.data) {
		return d.fail("data after top-level value")
	}
	return nil
}

func (d *decoder) snapshotObject(dst *Snapshot) error {
	var buf [64]byte
	done, err := d.begin('}')
	for !done && err == nil {
		var key []byte
		if key, err = d.memberKey(buf[:0]); err != nil {
			break
		}
		switch {
		case string(key) == "id" || foldEqual(key, "ID"):
			err = d.stringValue(&dst.ID)
		case string(key) == "fleet" || foldEqual(key, "FLEET"):
			start := d.pos
			if err = d.skipValue(); err == nil {
				dst.Fleet = d.data[start:d.pos]
			}
		case string(key) == "checkpoint" || foldEqual(key, "CHECKPOINT"):
			err = d.checkpointValue(&dst.Checkpoint)
		case string(key) == "state" || foldEqual(key, "STATE"):
			err = d.bytesValue(&dst.State)
		case string(key) == "log_sum" || foldEqual(key, "LOG_SUM"):
			err = d.uint32Value(&dst.LogSum)
		default:
			err = d.skipValue()
		}
		if err == nil {
			done, err = d.next('}')
		}
	}
	return err
}

// checkpointValue decodes a checkpoint object into *dst, allocating it
// when nil and merging into it otherwise; null sets *dst to nil.
func (d *decoder) checkpointValue(dst **stream.Checkpoint) error {
	switch c, _ := d.peek(); c {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '{':
	default:
		return d.fail("expected object or null")
	}
	if *dst == nil {
		*dst = new(stream.Checkpoint)
	}
	cp := *dst
	var buf [64]byte
	done, err := d.begin('}')
	for !done && err == nil {
		var key []byte
		if key, err = d.memberKey(buf[:0]); err != nil {
			break
		}
		switch {
		case string(key) == "alg" || foldEqual(key, "ALG"):
			err = d.stringValue(&cp.Alg)
		case string(key) == "slots" || foldEqual(key, "SLOTS"):
			cp.Slots = nil
			err = d.logValue(&cp.Log)
		default:
			err = d.unknown()
		}
		if err == nil {
			done, err = d.next('}')
		}
	}
	return err
}

// slotBytes is about what one logged slot takes in the stored form
// ({"lambda":12.345678901234},); logValue sizes the log from it.
const slotBytes = 24

// logValue decodes a replay log (or null, which sets *dst to nil) into
// the columns of *dst, with the slice semantics intsValue gives the
// records: "[]" yields a fresh empty log, and the array's records merge
// into those *dst holds, a record past the length within the columns'
// capacity re-exposed as it was last decoded (see element). A counts
// column is created, back-filled with nils, by the first "counts" member
// that is not null. When the log outgrows its capacity it reserves room
// for what the rest of the input could hold at slotBytes a slot, so a
// long log grows about once instead of by many small steps.
func (d *decoder) logValue(dst **stream.Log) error {
	switch c, _ := d.peek(); c {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.fail("expected array or null")
	}
	l := *dst
	if l == nil {
		l = new(stream.Log)
	}
	i := 0
	done, err := d.begin(']')
	for ; !done && err == nil; i++ {
		if i == cap(l.Lambda) {
			l.Lambda = slices.Grow(l.Lambda, (len(d.data)-d.pos)/slotBytes+1)
		}
		l.Lambda = element(l.Lambda, i)
		if l.Counts != nil {
			l.Counts = element(l.Counts, i)
		}
		switch c, _ := d.peek(); c {
		case '{':
			err = d.slotObject(l, i)
		case 'n':
			err = d.null()
		default:
			err = d.fail("expected object or null")
		}
		if err == nil {
			done, err = d.next(']')
		}
	}
	if err != nil {
		return err
	}
	if i == 0 {
		*dst = new(stream.Log)
		return nil
	}
	l.Lambda = l.Lambda[:i]
	if l.Counts != nil {
		l.Counts = l.Counts[:i]
	}
	*dst = l
	return nil
}

// slotObject decodes a record object into record i of l.
func (d *decoder) slotObject(l *stream.Log, i int) error {
	var buf [64]byte
	done, err := d.begin('}')
	for !done && err == nil {
		var key []byte
		if key, err = d.memberKey(buf[:0]); err != nil {
			break
		}
		switch {
		case string(key) == "lambda" || foldEqual(key, "LAMBDA"):
			err = d.floatValue(&l.Lambda[i])
		case string(key) == "counts" || foldEqual(key, "COUNTS"):
			if c, _ := d.peek(); c == 'n' && l.Counts == nil {
				err = d.null()
				break
			}
			if l.Counts == nil {
				l.Counts = make([][]int, i+1, cap(l.Lambda))
			}
			err = d.intsValue(&l.Counts[i])
		default:
			err = d.unknown()
		}
		if err == nil {
			done, err = d.next('}')
		}
	}
	return err
}

// stringValue decodes a string (or null no-op) into dst.
func (d *decoder) stringValue(dst *string) error {
	switch c, _ := d.peek(); c {
	case 'n':
		return d.null()
	case '"':
	default:
		return d.fail("expected string or null")
	}
	raw, escaped, err := d.scanString()
	if err != nil {
		return err
	}
	if !escaped && utf8.Valid(raw) {
		*dst = string(raw)
		return nil
	}
	s, _ := unquote(nil, raw, math.MaxInt)
	*dst = string(s)
	return nil
}

// bytesValue decodes a base64 string (or null, which zeroes dst) into
// dst, as encoding/json decodes a []byte.
func (d *decoder) bytesValue(dst *[]byte) error {
	switch c, _ := d.peek(); c {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '"':
	default:
		return d.fail("expected string or null")
	}
	start := d.pos
	raw, escaped, err := d.scanString()
	if err != nil {
		return err
	}
	if escaped {
		raw, _ = unquote(nil, raw, math.MaxInt)
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(b, raw)
	if err != nil {
		d.pos = start
		return d.fail("invalid base64")
	}
	*dst = b[:n]
	return nil
}

// uint32Value decodes a uint32 (or null no-op) into dst as
// encoding/json decodes one: any number that is not an integer in
// range is an error.
func (d *decoder) uint32Value(dst *uint32) error {
	if c, _ := d.peek(); c == 'n' {
		return d.null()
	}
	lit, err := d.scanNumber()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(unsafeString(lit), 10, 32)
	if err != nil {
		return d.fail("number is not a uint32")
	}
	*dst = uint32(n)
	return nil
}

// DecodeLog decodes a whole stored replay log — a "slots" array and
// nothing else, such as a span and its closing bracket — into columns
// with DecodeSnapshot's rules: "[]" is a non-nil empty log, null a nil
// one.
func DecodeLog(data []byte) (*stream.Log, error) {
	d := decoder{data: data}
	d.skipWS()
	var l *stream.Log
	if err := d.logValue(&l); err != nil {
		return nil, err
	}
	if d.skipWS(); d.pos != len(d.data) {
		return nil, d.fail("data after the log")
	}
	return l, nil
}

// A SealedSnapshot is a stored snapshot read without decoding its log.
type SealedSnapshot struct {
	ID string
	// Fleet is the descriptor's raw JSON, aliasing the input.
	Fleet []byte
	Alg   string
	State []byte
	// Log is the stored log, aliasing the input with its capacity
	// capped, so appending to it never writes into the input.
	Log LogSpan
}

// ReadSealedSnapshot reads a snapshot in the exact compact layout
// AppendSnapshot writes, with a state and a log sum, and checks the sum:
// the log's bytes are summed, not decoded. It reports ok=false for
// anything else — another layout (an indented file), no state or sum,
// or a sum that does not match (a flipped byte, a state from another
// log) — and the caller then decodes the input in full with
// DecodeSnapshot. Whatever it accepts, DecodeSnapshot accepts with the
// same id, fleet, algorithm, state and log (FuzzSealedSnapshot): the
// head and the state are parsed here, and the sum vouches for the log,
// which only a writer that encoded it could have sealed.
func ReadSealedSnapshot(data []byte) (s SealedSnapshot, ok bool) {
	d := decoder{data: data}
	if !d.skipLit(`{"id":`) || !d.at('"') || d.stringValue(&s.ID) != nil || !d.skipLit(`,"fleet":`) {
		return s, false
	}
	start := d.pos
	if d.skipValue() != nil {
		return s, false
	}
	s.Fleet = data[start:d.pos:d.pos]
	if !d.skipLit(`,"checkpoint":{`) {
		return s, false
	}
	if d.skipLit(`"alg":`) && (!d.at('"') || d.stringValue(&s.Alg) != nil || !d.skipLit(",")) {
		return s, false
	}
	if !d.skipLit(`"slots":[`) {
		return s, false
	}
	spanStart := d.pos - 1

	// The rest is read from the end: "log_sum" is the last member and
	// "state" the one before, behind the log's closing brackets.
	i := len(data) - 1
	if i < spanStart || data[i] != '}' {
		return s, false
	}
	j := i
	for j > spanStart && isDigit(data[j-1]) {
		j--
	}
	sum, err := strconv.ParseUint(unsafeString(data[j:i]), 10, 32)
	if err != nil || sum == 0 || data[j] == '0' {
		return s, false
	}
	const sumKey, stateKey = `,"log_sum":`, `,"state":"`
	if j -= len(sumKey); j < spanStart || string(data[j:j+len(sumKey)]) != sumKey || data[j-1] != '"' {
		return s, false
	}
	end := j - 1
	k := end
	for k > spanStart && data[k-1] != '"' {
		if c := data[k-1]; c < ' ' || c == '\\' {
			return s, false
		}
		k--
	}
	b64 := data[k:end]
	if k -= len(stateKey); k-2 <= spanStart || string(data[k:k+len(stateKey)]) != stateKey || data[k-1] != '}' || data[k-2] != ']' {
		return s, false
	}
	s.State = make([]byte, base64.StdEncoding.DecodedLen(len(b64)))
	n, err := base64.StdEncoding.Decode(s.State, b64)
	if err != nil || n == 0 {
		return s, false
	}
	s.State = s.State[:n]
	spanEnd := k - 2
	s.Log = LogSpan{Bytes: data[spanStart:spanEnd:spanEnd]}
	s.Log.Sum = crc32.ChecksumIEEE(s.Log.Bytes)
	return s, s.Log.Seal(nil, s.State) == uint32(sum)
}

// ReadScenarioFleet reads a fleet descriptor in the exact compact form
// json.Marshal writes of a fleet named by a scenario and seed:
// {"scenario":"name","seed":n}, either member omitted when zero, the
// name printable ASCII without escapes. It reports ok=false for any
// other form, explicit zero members included, which the caller decodes
// with encoding/json; so a member absent here is one json.Unmarshal
// would leave as it is, and one present holds the value it decodes.
func ReadScenarioFleet(data []byte) (scenario string, seed int64, ok bool) {
	d := decoder{data: data}
	if !d.skipLit("{") {
		return "", 0, false
	}
	if d.skipLit(`"scenario":"`) {
		start := d.pos
		for d.pos < len(data) && data[d.pos] != '"' {
			if c := data[d.pos]; c < ' ' || c == '\\' || c >= utf8.RuneSelf {
				return "", 0, false
			}
			d.pos++
		}
		if d.pos == start || d.pos == len(data) {
			return "", 0, false
		}
		scenario = string(data[start:d.pos])
		d.pos++
		if d.skipLit("}") {
			return scenario, 0, d.pos == len(data)
		}
		if !d.skipLit(",") {
			return "", 0, false
		}
	}
	if d.skipLit(`"seed":`) {
		lit, err := d.scanNumber()
		if err != nil {
			return "", 0, false
		}
		if seed, err = strconv.ParseInt(unsafeString(lit), 10, 64); err != nil || seed == 0 {
			return "", 0, false
		}
	} else if scenario != "" {
		return "", 0, false
	}
	if !d.skipLit("}") || d.pos != len(data) {
		return "", 0, false
	}
	return scenario, seed, true
}

// skipLit consumes lit if the input continues with it.
func (d *decoder) skipLit(lit string) bool {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// at reports whether the next input byte is c.
func (d *decoder) at(c byte) bool {
	b, ok := d.peek()
	return ok && b == c
}

// skipValue consumes one JSON value of any kind, checking its syntax
// as encoding/json's scanner does.
func (d *decoder) skipValue() error {
	c, ok := d.peek()
	switch {
	case !ok:
		return d.fail("unexpected end of input")
	case c == '{':
		done, err := d.begin('}')
		for !done && err == nil {
			if _, err = d.memberKey(nil); err == nil {
				err = d.skipValue()
			}
			if err == nil {
				done, err = d.next('}')
			}
		}
		return err
	case c == '[':
		done, err := d.begin(']')
		for !done && err == nil {
			if err = d.skipValue(); err == nil {
				done, err = d.next(']')
			}
		}
		return err
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.null()
	}
	_, err := d.scanNumber()
	return err
}
