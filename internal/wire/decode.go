package wire

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/stream"
)

// The decoder: a hand-rolled scanner over the raw request bytes with no
// reflection and no allocation on well-formed input (the only growth is
// the target Counts/batch slices themselves). It accepts exactly the
// inputs a strict json.Decoder (DisallowUnknownFields) accepts and
// produces identical values — including the obscure corners, which the
// encoding/json oracle tests (FuzzWireCodec, serve's TestHTTPPushBodies,
// TestHTTPOpenBodies and FuzzOpenRequest) hold it to:
//
//   - trailing bytes after the top-level value are ignored, even
//     syntactically invalid ones ("{}x", "nullx"): the reference
//     decoder's readValue stops at the end of the first value;
//   - null zeroes nilable targets (the counts slice, the batch slice)
//     and is a no-op for everything else (structs, floats, array
//     elements), exactly json.Decoder's kind-dependent null handling;
//   - duplicate keys merge element-wise, last key wins
//     ({"counts":[9],"counts":[null]} decodes to [9]);
//   - field names match case-insensitively under SimpleFold (fold.go),
//     after unescaping ("lambda", "LAMBDA", "countſ" all match);
//   - numbers follow the JSON grammar, then strconv: floats accept
//     underflow (1e-999 is 0) but reject overflow (1e309); ints reject
//     any fraction or exponent ("1.0", "1e2") and int64 overflow;
//   - "[]" decodes to a non-nil empty slice, null leaves it nil.
//
// Error messages are wire's own; callers needing encoding/json's exact
// prose re-decode the (already known malformed) input with it.

// A DecodeError reports malformed or unacceptable input with its byte
// offset. Its text intentionally differs from encoding/json's.
type DecodeError struct {
	Offset int
	Msg    string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: %s at offset %d", e.Msg, e.Offset)
}

// DecodePushRequest decodes one push object (or null) into dst,
// merging into dst's existing contents exactly as json.Decoder does.
// On error dst may hold partially decoded state.
func DecodePushRequest(data []byte, dst *PushRequest) error {
	d := decoder{data: data}
	d.skipWS()
	c, ok := d.peek()
	switch {
	case !ok:
		return d.fail("unexpected end of input")
	case c == '{':
		return d.object(dst)
	case c == 'n':
		return d.null()
	}
	return d.fail("expected object or null")
}

// DecodePushRequests decodes a batch push array (or null) into dst with
// json.Decoder's slice semantics: "[]" yields a non-nil empty slice,
// null sets dst to nil, elements merge into existing entries.
func DecodePushRequests(data []byte, dst *[]PushRequest) error {
	d := decoder{data: data}
	d.skipWS()
	c, ok := d.peek()
	switch {
	case !ok:
		return d.fail("unexpected end of input")
	case c == '[':
		return d.requestArray(dst)
	case c == 'n':
		if err := d.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	}
	return d.fail("expected array or null")
}

// OpenRequest is serve.OpenRequest, the POST /v1/sessions body, with
// its fleet descriptor left raw as Snapshot leaves it: the serving
// layer owns the descriptor's types and decodes it.
type OpenRequest struct {
	ID  string
	Alg string
	// Fleet holds the value of every "fleet" member, in input order,
	// aliasing the input. Decoding each in turn into one descriptor
	// merges duplicates exactly as one pass of json.Decoder does.
	Fleet      [][]byte
	Checkpoint *stream.Checkpoint
}

// DecodeOpenRequest decodes an open body (or null) into dst under the
// strict request rules above: an unknown member anywhere — at the top
// level, in the checkpoint or in a slot record, "costs" included — is
// an error, and trailing bytes after the value are ignored. A "fleet"
// member's value is only checked for syntax and kept raw. On error dst
// may hold partially decoded state.
func DecodeOpenRequest(data []byte, dst *OpenRequest) error {
	d := decoder{data: data, strict: true}
	d.skipWS()
	c, ok := d.peek()
	switch {
	case !ok:
		return d.fail("unexpected end of input")
	case c == '{':
		return d.openObject(dst)
	case c == 'n':
		return d.null()
	}
	return d.fail("expected object or null")
}

func (d *decoder) openObject(dst *OpenRequest) error {
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
		case string(key) == "alg" || foldEqual(key, "ALG"):
			err = d.stringValue(&dst.Alg)
		case string(key) == "fleet" || foldEqual(key, "FLEET"):
			start := d.pos
			if err = d.skipValue(); err == nil {
				dst.Fleet = append(dst.Fleet, d.data[start:d.pos])
			}
		case string(key) == "checkpoint" || foldEqual(key, "CHECKPOINT"):
			err = d.checkpointValue(&dst.Checkpoint)
		default:
			err = d.unknown()
		}
		if err == nil {
			done, err = d.next('}')
		}
	}
	return err
}

// unknown handles the value of a member no field matches.
func (d *decoder) unknown() error {
	if d.strict {
		return d.fail("unknown field")
	}
	return d.skipValue()
}

var (
	emptyInts     = make([]int, 0)
	emptyRequests = make([]PushRequest, 0)
)

// maxDepth is encoding/json's nesting limit: its scanner rejects an
// input with objects and arrays nested deeper than this.
const maxDepth = 10000

type decoder struct {
	data  []byte
	pos   int
	depth int // open objects and arrays
	// strict makes a member no field matches an error, as
	// DisallowUnknownFields does; otherwise its value is skipped, as
	// json.Unmarshal skips it. DecodeOpenRequest sets it for the
	// checkpoint code it shares with DecodeSnapshot.
	strict bool
}

func (d *decoder) fail(msg string) error {
	return &DecodeError{Offset: d.pos, Msg: msg}
}

func (d *decoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) peek() (byte, bool) {
	if d.pos < len(d.data) {
		return d.data[d.pos], true
	}
	return 0, false
}

// null consumes the literal "null". The caller's delimiter check (or
// the ignored-trailing-data rule at top level) handles what follows.
func (d *decoder) null() error { return d.literal("null") }

// literal consumes the literal lit (null, true or false).
func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return nil
	}
	return d.fail("invalid literal")
}

// Objects and arrays are walked with three steps: begin consumes the
// opening '{' or '[' at d.pos, memberKey reads an object member's key
// and ':', and next consumes the ',' or closing bracket after a member
// or element. begin and next report done once the closer is consumed.
// The loop of every container decoder is
//
//	done, err := d.begin(closer)
//	for !done && err == nil {
//		... decode one member or element ...
//		if err == nil {
//			done, err = d.next(closer)
//		}
//	}

func (d *decoder) begin(closer byte) (done bool, err error) {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		return false, d.fail("exceeded max nesting depth")
	}
	d.skipWS()
	if c, ok := d.peek(); ok && c == closer {
		d.pos++
		d.depth--
		return true, nil
	}
	return false, nil
}

// memberKey reads one member's key and its ':', leaving d.pos at the
// value. An escaped key is unescaped into buf; one that outgrows buf is
// returned as nil, which matches no field — it is longer than any field
// name (folding shrinks a rune's encoding at most from 3 bytes to 1).
func (d *decoder) memberKey(buf []byte) ([]byte, error) {
	c, ok := d.peek()
	if !ok {
		return nil, d.fail("unexpected end of object")
	}
	if c != '"' {
		return nil, d.fail("expected object key")
	}
	key, escaped, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if escaped {
		key, _ = unquote(buf, key, cap(buf))
	}
	d.skipWS()
	if c, ok := d.peek(); !ok || c != ':' {
		return nil, d.fail("expected ':' after object key")
	}
	d.pos++
	d.skipWS()
	return key, nil
}

func (d *decoder) next(closer byte) (done bool, err error) {
	d.skipWS()
	c, ok := d.peek()
	switch {
	case !ok:
		return false, d.fail("unexpected end of input")
	case c == ',':
		d.pos++
		d.skipWS()
		return false, nil
	case c == closer:
		d.pos++
		d.depth--
		return true, nil
	}
	return false, d.fail("expected ',' or closing bracket")
}

// element extends s to hold element i as encoding/json's array decoder
// does: an element past len but within cap is re-exposed with whatever
// it held (so a null element, a no-op, keeps a stale value), and one
// past cap is appended zeroed.
func element[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// object decodes {"lambda":..., "counts":...} into dst, rejecting
// unknown fields as DisallowUnknownFields does.
func (d *decoder) object(dst *PushRequest) error {
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
			err = d.fail("unknown field")
		}
		if err == nil {
			done, err = d.next('}')
		}
	}
	return err
}

// floatValue decodes a number (or null no-op) into dst.
func (d *decoder) floatValue(dst *float64) error {
	c, ok := d.peek()
	if !ok {
		return d.fail("unexpected end of input")
	}
	if c == 'n' {
		return d.null()
	}
	lit, err := d.scanNumber()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(unsafeString(lit), 64)
	if err != nil {
		// The reference decoder accepts underflow (result rounds to a
		// finite value, e.g. 1e-999 -> 0) and rejects only overflow.
		if !errors.Is(err, strconv.ErrRange) || math.IsInf(f, 0) {
			return d.fail("number out of float64 range")
		}
	}
	*dst = f
	return nil
}

// intsValue decodes an array of ints (or null) into dst with
// encoding/json's slice semantics: null zeroes the slice (json sets
// slices, maps and pointers to nil on null; only non-nilable kinds
// no-op), "[]" yields a fresh empty slice, and elements merge into the
// existing ones (see element), a null element keeping its value.
func (d *decoder) intsValue(dst *[]int) error {
	c, ok := d.peek()
	switch {
	case !ok:
		return d.fail("unexpected end of input")
	case c == 'n':
		if err := d.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	case c != '[':
		return d.fail("expected array or null")
	}
	s, i := *dst, 0
	done, err := d.begin(']')
	for ; !done && err == nil; i++ {
		s = element(s, i)
		if c, _ := d.peek(); c == 'n' {
			err = d.null()
		} else {
			err = d.intElem(&s[i])
		}
		if err == nil {
			done, err = d.next(']')
		}
	}
	if err != nil {
		return err
	}
	if i == 0 {
		*dst = emptyInts
	} else {
		*dst = s[:i]
	}
	return nil
}

// intElem decodes one int array element.
func (d *decoder) intElem(dst *int) error {
	lit, err := d.scanNumber()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(unsafeString(lit), 10, 64)
	if err != nil {
		return d.fail("number is not an int")
	}
	*dst = int(n)
	return nil
}

// requestArray decodes [obj, obj, ...] into dst with intsValue's slice
// semantics.
func (d *decoder) requestArray(dst *[]PushRequest) error {
	s, i := *dst, 0
	done, err := d.begin(']')
	for ; !done && err == nil; i++ {
		s = element(s, i)
		switch c, _ := d.peek(); c {
		case '{':
			err = d.object(&s[i])
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
		*dst = emptyRequests
	} else {
		*dst = s[:i]
	}
	return nil
}

// scanString validates and consumes the string at d.pos (which must be
// '"'), returning the raw bytes between the quotes and whether they
// contain escapes. Raw control characters and malformed escapes are
// syntax errors; raw invalid UTF-8 is not (the scanner passes any byte
// >= 0x20 through, as encoding/json's does).
func (d *decoder) scanString() (raw []byte, escaped bool, err error) {
	data := d.data
	start := d.pos + 1
	i := start
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], escaped, nil
		case c == '\\':
			escaped = true
			i++
			if i >= len(data) {
				d.pos = i
				return nil, false, d.fail("unexpected end of string")
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if i+4 >= len(data) {
					d.pos = len(data)
					return nil, false, d.fail("unexpected end of string")
				}
				for k := 1; k <= 4; k++ {
					if !isHex(data[i+k]) {
						d.pos = i + k
						return nil, false, d.fail("invalid \\u escape")
					}
				}
				i += 5
			default:
				d.pos = i
				return nil, false, d.fail("invalid escape character")
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.fail("control character in string")
		default:
			i++
		}
	}
	d.pos = len(data)
	return nil, false, d.fail("unexpected end of string")
}

// scanNumber consumes a number per the JSON grammar (stricter than
// strconv: no leading zeros, no hex, no leading '+' or '.') and
// returns its literal bytes.
func (d *decoder) scanNumber() ([]byte, error) {
	data := d.data
	start := d.pos
	i := d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		d.pos = i
		return nil, d.fail("invalid number")
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i++
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	default:
		d.pos = i
		return nil, d.fail("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.fail("invalid number")
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.fail("invalid number")
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	d.pos = i
	return data[start:i], nil
}

// unquote appends what the raw string body (the bytes between the
// quotes, already validated by scanString) decodes to, replicating
// encoding/json's unquote: \uXXXX with UTF-16 surrogate pairing, lone
// surrogates and invalid UTF-8 bytes replaced by U+FFFD. ok is false,
// and nothing useful returned, once the result would outgrow limit
// bytes — memberKey passes its key buffer's capacity, so decoding a key
// never allocates.
func unquote(buf, raw []byte, limit int) (s []byte, ok bool) {
	for i := 0; i < len(raw); {
		if len(buf)+utf8.UTFMax > limit {
			return nil, false
		}
		c := raw[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(raw[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
			continue
		}
		if c != '\\' {
			buf = append(buf, c)
			i++
			continue
		}
		i++
		switch c := raw[i]; c {
		case '"', '\\', '/':
			buf = append(buf, c)
			i++
		case 'b':
			buf = append(buf, '\b')
			i++
		case 'f':
			buf = append(buf, '\f')
			i++
		case 'n':
			buf = append(buf, '\n')
			i++
		case 'r':
			buf = append(buf, '\r')
			i++
		case 't':
			buf = append(buf, '\t')
			i++
		case 'u':
			r := rune(hex4(raw[i+1:]))
			i += 5
			if utf16.IsSurrogate(r) {
				var r2 rune = -1
				if i+5 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = rune(hex4(raw[i+2:]))
				}
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					r = dec
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			buf = utf8.AppendRune(buf, r)
		}
	}
	return buf, true
}

func hex4(b []byte) (v int) {
	for k := 0; k < 4; k++ {
		c := b[k]
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | int(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | int(c-'a'+10)
		default:
			v = v<<4 | int(c-'A'+10)
		}
	}
	return v
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// unsafeString views b as a string for strconv parsing without copying;
// strconv does not retain its argument.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
