package wire

import (
	"encoding/base64"
	"math"
	"slices"
	"unicode/utf8"

	"repro/internal/stream"
)

// The snapshot store's codec: a stored session is one JSON object, the
// same document json.Marshal makes of serve.Snapshot, so a snapshot
// file stays readable by any JSON tool and by encoding/json itself.
// The fleet descriptor is the one sub-value this codec does not own: it
// arrives encoded (the serving layer marshals its small tagged union
// with encoding/json) and leaves as its raw bytes. Everything else —
// the id, the replay log and the base64 state — is encoded and decoded
// here without reflection. FuzzSnapshotCodec holds both directions to
// encoding/json.

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
}

// AppendSnapshot appends snap as a JSON object, byte-identical to
// json.Marshal of serve.Snapshot: {"id","fleet","checkpoint"} and
// "state" (base64) when non-empty. Non-finite demands report
// ErrUnsupportedValue, exactly where json.Marshal fails.
func AppendSnapshot(dst []byte, snap *Snapshot) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = AppendString(dst, snap.ID)
	dst = append(dst, `,"fleet":`...)
	if len(snap.Fleet) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, snap.Fleet...)
	}
	dst = append(dst, `,"checkpoint":`...)
	dst, err := appendCheckpoint(dst, snap.Checkpoint)
	if err != nil {
		return dst, err
	}
	if len(snap.State) > 0 {
		dst = append(dst, `,"state":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, snap.State)
		dst = append(dst, '"')
	}
	return append(dst, '}'), nil
}

// appendCheckpoint appends a stream.Checkpoint (or null): "alg" when
// set, then the replay log, each slot's in-memory cost functions
// omitted as their `json:"-"` tag omits them.
func appendCheckpoint(dst []byte, cp *stream.Checkpoint) ([]byte, error) {
	if cp == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '{')
	if cp.Alg != "" {
		dst = append(dst, `"alg":`...)
		dst = AppendString(dst, cp.Alg)
		dst = append(dst, ',')
	}
	dst = append(dst, `"slots":`...)
	if cp.Slots == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range cp.Slots {
		var err error
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"lambda":`...)
		if dst, err = AppendFloat(dst, cp.Slots[i].Lambda); err != nil {
			return dst, err
		}
		if len(cp.Slots[i].Counts) > 0 {
			dst = append(dst, `,"counts":`...)
			dst = appendInts(dst, cp.Slots[i].Counts)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']', '}'), nil
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
// rather than base64, which no encoder writes.
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
			err = d.slotsValue(&cp.Slots)
		default:
			err = d.skipValue()
		}
		if err == nil {
			done, err = d.next('}')
		}
	}
	return err
}

var emptySlots = make([]stream.SlotRecord, 0)

// slotBytes is about what one logged slot takes in the stored form
// ({"lambda":12.345678901234},); slotsValue sizes the log from it.
const slotBytes = 24

// slotsValue decodes a replay log (or null) with intsValue's slice
// semantics. When the log outgrows its capacity it reserves room for
// what the rest of the input could hold at slotBytes a slot, so a long
// log grows about once instead of by many small steps; the reserved
// elements are zero, exactly as appended ones would be.
func (d *decoder) slotsValue(dst *[]stream.SlotRecord) error {
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
	s, i := *dst, 0
	done, err := d.begin(']')
	for ; !done && err == nil; i++ {
		if i == cap(s) {
			s = slices.Grow(s, (len(d.data)-d.pos)/slotBytes+1)
		}
		s = element(s, i)
		switch c, _ := d.peek(); c {
		case '{':
			err = d.slotObject(&s[i])
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
		*dst = emptySlots
	} else {
		*dst = s[:i]
	}
	return nil
}

func (d *decoder) slotObject(dst *stream.SlotRecord) error {
	var buf [64]byte
	done, err := d.begin('}')
	for !done && err == nil {
		var key []byte
		if key, err = d.memberKey(buf[:0]); err != nil {
			break
		}
		switch {
		case string(key) == "lambda" || foldEqual(key, "LAMBDA"):
			err = d.floatValue(&dst.Lambda)
		case string(key) == "counts" || foldEqual(key, "COUNTS"):
			err = d.intsValue(&dst.Counts)
		default:
			err = d.skipValue()
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
