package wire

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// The decoder: a hand-rolled scanner over the raw request bytes with no
// reflection and no allocation on well-formed input (the only growth is
// the target Counts/batch slices themselves). It accepts exactly the
// inputs a strict json.Decoder (DisallowUnknownFields) accepts and
// produces identical values — including the obscure corners, which the
// encoding/json oracle tests (FuzzWireCodec, serve's TestHTTPPushBodies)
// hold it to:
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

var (
	emptyInts     = make([]int, 0)
	emptyRequests = make([]PushRequest, 0)
)

type decoder struct {
	data []byte
	pos  int
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
func (d *decoder) null() error {
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return nil
	}
	return d.fail("invalid literal")
}

// object decodes {"lambda":..., "counts":...} into dst, rejecting
// unknown fields as DisallowUnknownFields does.
func (d *decoder) object(dst *PushRequest) error {
	d.pos++ // '{'
	d.skipWS()
	if c, ok := d.peek(); ok && c == '}' {
		d.pos++
		return nil
	}
	for {
		c, ok := d.peek()
		if !ok {
			return d.fail("unexpected end of object")
		}
		if c != '"' {
			return d.fail("expected object key")
		}
		raw, escaped, err := d.scanString()
		if err != nil {
			return err
		}
		key := raw
		var scratch [64]byte
		if escaped {
			var ok bool
			if key, ok = unquoteKey(raw, scratch[:0]); !ok {
				// Key too long for scratch: it cannot match any
				// field, so it is unknown either way.
				return d.fail("unknown field")
			}
		}
		d.skipWS()
		if c, ok := d.peek(); !ok || c != ':' {
			return d.fail("expected ':' after object key")
		}
		d.pos++
		d.skipWS()
		switch {
		case string(key) == "lambda" || foldEqual(key, "LAMBDA"):
			err = d.floatValue(&dst.Lambda)
		case string(key) == "counts" || foldEqual(key, "COUNTS"):
			err = d.intsValue(&dst.Counts)
		default:
			err = d.fail("unknown field")
		}
		if err != nil {
			return err
		}
		d.skipWS()
		c, ok = d.peek()
		switch {
		case !ok:
			return d.fail("unexpected end of object")
		case c == ',':
			d.pos++
			d.skipWS()
		case c == '}':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or '}' in object")
		}
	}
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

// intsValue decodes an array of ints (or null no-op) into dst with
// element-level merge: a null element keeps the existing value.
func (d *decoder) intsValue(dst *[]int) error {
	c, ok := d.peek()
	if !ok {
		return d.fail("unexpected end of input")
	}
	if c == 'n' {
		// null into a slice zeroes it (json.Decoder sets slices, maps
		// and pointers to nil on null; only non-nilable kinds no-op).
		if err := d.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	}
	if c != '[' {
		return d.fail("expected array or null")
	}
	d.pos++
	d.skipWS()
	s := *dst
	if c, ok := d.peek(); ok && c == ']' {
		d.pos++
		if s == nil {
			*dst = emptyInts
		} else {
			*dst = s[:0]
		}
		return nil
	}
	i := 0
	for {
		if i >= len(s) {
			s = append(s, 0)
		}
		c, ok := d.peek()
		switch {
		case !ok:
			return d.fail("unexpected end of array")
		case c == 'n':
			if err := d.null(); err != nil {
				return err
			}
		default:
			lit, err := d.scanNumber()
			if err != nil {
				return err
			}
			n, err := strconv.ParseInt(unsafeString(lit), 10, 64)
			if err != nil {
				return d.fail("number is not an int")
			}
			s[i] = int(n)
		}
		i++
		d.skipWS()
		c, ok = d.peek()
		switch {
		case !ok:
			return d.fail("unexpected end of array")
		case c == ',':
			d.pos++
			d.skipWS()
		case c == ']':
			d.pos++
			*dst = s[:i]
			return nil
		default:
			return d.fail("expected ',' or ']' in array")
		}
	}
}

// requestArray decodes [obj, obj, ...] into dst.
func (d *decoder) requestArray(dst *[]PushRequest) error {
	d.pos++ // '['
	d.skipWS()
	s := *dst
	if c, ok := d.peek(); ok && c == ']' {
		d.pos++
		if s == nil {
			*dst = emptyRequests
		} else {
			*dst = s[:0]
		}
		return nil
	}
	i := 0
	for {
		if i >= len(s) {
			s = append(s, PushRequest{})
		}
		c, ok := d.peek()
		switch {
		case !ok:
			return d.fail("unexpected end of array")
		case c == '{':
			if err := d.object(&s[i]); err != nil {
				return err
			}
		case c == 'n':
			if err := d.null(); err != nil {
				return err
			}
		default:
			return d.fail("expected object or null")
		}
		i++
		d.skipWS()
		c, ok = d.peek()
		switch {
		case !ok:
			return d.fail("unexpected end of array")
		case c == ',':
			d.pos++
			d.skipWS()
		case c == ']':
			d.pos++
			*dst = s[:i]
			return nil
		default:
			return d.fail("expected ',' or ']' in array")
		}
	}
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

// unquoteKey decodes the escapes in a raw key into buf, replicating
// encoding/json's unquote: \uXXXX with UTF-16 surrogate pairing, lone
// surrogates replaced by U+FFFD. Syntax was already validated by
// scanString. ok is false if the decoded key outgrows buf's capacity —
// such a key is longer than any field name (folding shrinks a rune's
// encoding at most from 3 bytes to 1) and so matches nothing.
func unquoteKey(raw, buf []byte) (key []byte, ok bool) {
	for i := 0; i < len(raw); {
		if len(buf)+utf8.UTFMax > cap(buf) {
			return nil, false
		}
		if raw[i] != '\\' {
			buf = append(buf, raw[i])
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
