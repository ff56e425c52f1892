// Package statebuf is the binary encoding behind the algorithm state
// codecs (core.Snapshotter and the types that implement it): append
// helpers for headers, varint integers, IEEE-754 float bits and nested
// byte strings, a CRC-32C trailer, and a Reader with a sticky error.
//
// Floats travel as their raw bits, so the +Inf cells of a DP layer,
// signed zeros and every last ulp round-trip exactly — JSON can carry
// none of the first and loses nothing only by luck on the rest. Every
// encoding starts with a (kind, version) header, so a state written by
// one codec is never misread by another, and a decoder meeting a version
// it does not know reports ErrVersion instead of guessing.
package statebuf

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

var (
	// ErrVersion marks a state whose header names another codec or a
	// version this build does not know.
	ErrVersion = errors.New("statebuf: unknown state kind or version")
	// ErrMalformed marks a state that is truncated, has trailing bytes,
	// fails its checksum or holds out-of-range values.
	ErrMalformed = errors.New("statebuf: malformed state")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendHeader appends a codec's (kind, version) header.
func AppendHeader(dst []byte, kind, version byte) []byte {
	return append(dst, kind, version)
}

// AppendInt appends v as a zig-zag varint.
func AppendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// AppendUint64 appends v as 8 little-endian bytes.
func AppendUint64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendFloat appends f's IEEE-754 bits.
func AppendFloat(dst []byte, f float64) []byte { return AppendUint64(dst, math.Float64bits(f)) }

// AppendInts appends a length-prefixed int slice.
func AppendInts(dst []byte, vs []int) []byte {
	dst = AppendInt(dst, len(vs))
	for _, v := range vs {
		dst = AppendInt(dst, v)
	}
	return dst
}

// AppendFloats appends a length-prefixed float slice.
func AppendFloats(dst []byte, fs []float64) []byte {
	dst = AppendInt(dst, len(fs))
	for _, f := range fs {
		dst = AppendFloat(dst, f)
	}
	return dst
}

// AppendBytes appends a length-prefixed byte string (a nested state).
func AppendBytes(dst, b []byte) []byte {
	dst = AppendInt(dst, len(b))
	return append(dst, b...)
}

// AppendNested appends the state appendState appends as a
// length-prefixed byte string: the bytes of AppendBytes(dst,
// appendState(nil)), written in place instead of through a buffer of
// their own. appendState must only append to the slice it is given.
func AppendNested(dst []byte, appendState func([]byte) []byte) []byte {
	const room = binary.MaxVarintLen64
	start := len(dst)
	dst = appendState(append(dst, make([]byte, room)...))
	n := len(dst) - start - room
	var prefix [room]byte
	w := binary.PutVarint(prefix[:], int64(n))
	copy(dst[start+w:], dst[start+room:])
	copy(dst[start:], prefix[:w])
	return dst[:start+w+n]
}

// AppendChecksum appends the CRC-32C of dst[start:], sealing the
// encoding that began at start.
func AppendChecksum(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// Verify checks the CRC-32C trailer AppendChecksum wrote and returns the
// sealed bytes without it.
func Verify(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrMalformed
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, ErrMalformed
	}
	return body, nil
}

// Reader decodes an encoding produced by the Append helpers. The first
// failure sticks: later reads return zero values, and Err/Done report
// it, so decoders read every field and check once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader starts decoding b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Header consumes a (kind, version) header, failing with ErrVersion
// unless it is exactly the expected one.
func (r *Reader) Header(kind, version byte) {
	if r.err != nil {
		return
	}
	if len(r.b) < 2 {
		r.fail(ErrMalformed)
		return
	}
	if r.b[0] != kind || r.b[1] != version {
		r.fail(ErrVersion)
		return
	}
	r.b = r.b[2:]
}

// Int consumes a varint.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 || v != int64(int(v)) {
		r.fail(ErrMalformed)
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// Uint64 consumes 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(ErrMalformed)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Float consumes IEEE-754 bits.
func (r *Reader) Float() float64 { return math.Float64frombits(r.Uint64()) }

// length consumes a length prefix for elements of at least minSize
// bytes each, rejecting lengths the remaining input cannot hold (so a
// corrupt prefix never triggers a huge allocation).
func (r *Reader) length(minSize int) int {
	n := r.Int()
	if r.err == nil && (n < 0 || n > len(r.b)/minSize) {
		r.fail(ErrMalformed)
		return 0
	}
	return n
}

// Ints consumes a length-prefixed int slice (nil when empty).
func (r *Reader) Ints() []int { return r.IntsInto(nil) }

// IntsInto is Ints decoding into dst's storage, which it grows only when
// too small: the result is dst[:n] or a new slice.
func (r *Reader) IntsInto(dst []int) []int {
	n := r.length(1)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.Int()
	}
	return dst
}

// Floats consumes a length-prefixed float slice (nil when empty).
func (r *Reader) Floats() []float64 { return r.FloatsInto(nil) }

// FloatsInto is Floats decoding into dst's storage, which it grows only
// when too small: the result is dst[:n] or a new slice.
func (r *Reader) FloatsInto(dst []float64) []float64 {
	n := r.length(8)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.Float()
	}
	return dst
}

// Bytes consumes a length-prefixed byte string. The result aliases the
// input.
func (r *Reader) Bytes() []byte {
	n := r.length(1)
	if r.err != nil {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Err returns the first decoding failure, if any.
func (r *Reader) Err() error { return r.err }

// Done ends decoding: it returns the first failure, or ErrMalformed when
// input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail(ErrMalformed)
	}
	return r.err
}
