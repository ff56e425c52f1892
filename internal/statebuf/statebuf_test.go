package statebuf

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func encodeSample() []byte {
	b := AppendHeader(nil, 'X', 1)
	b = AppendInt(b, -7)
	b = AppendFloat(b, math.Inf(1))
	b = AppendFloat(b, math.Copysign(0, -1))
	b = AppendInts(b, []int{3, 0, -1 << 40})
	b = AppendFloats(b, []float64{1.5, math.Inf(1)})
	b = AppendBytes(b, []byte("nested"))
	return AppendChecksum(b, 0)
}

// Every field round-trips exactly, floats by their bits.
func TestRoundTrip(t *testing.T) {
	body, err := Verify(encodeSample())
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(body)
	r.Header('X', 1)
	i, inf, negZero := r.Int(), r.Float(), r.Float()
	ints, floats, nested := r.Ints(), r.Floats(), r.Bytes()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if i != -7 || !math.IsInf(inf, 1) || math.Float64bits(negZero) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("scalars: %d %v %v", i, inf, negZero)
	}
	if len(ints) != 3 || ints[2] != -1<<40 || len(floats) != 2 || !math.IsInf(floats[1], 1) || string(nested) != "nested" {
		t.Fatalf("slices: %v %v %q", ints, floats, nested)
	}
}

// IntsInto and FloatsInto decode into the storage they are given when
// it is large enough, and into a new slice when it is not.
func TestDecodeInto(t *testing.T) {
	body, err := Verify(encodeSample())
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(body)
	r.Header('X', 1)
	r.Int()
	r.Float()
	r.Float()
	intBuf, floatBuf := make([]int, 0, 3), make([]float64, 0, 1)
	ints, floats := r.IntsInto(intBuf), r.FloatsInto(floatBuf)
	r.Bytes()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if len(ints) != 3 || &ints[0] != &intBuf[:1][0] || ints[2] != -1<<40 {
		t.Fatalf("ints %v not decoded into the given buffer", ints)
	}
	if len(floats) != 2 || &floats[0] == &floatBuf[:1][0] || floats[0] != 1.5 || !math.IsInf(floats[1], 1) {
		t.Fatalf("floats %v: want a new slice holding [1.5 +Inf]", floats)
	}
}

// Truncation, trailing bytes, a foreign header and a length prefix the
// input cannot hold are all errors, never panics or huge allocations.
func TestMalformed(t *testing.T) {
	full := encodeSample()
	body := full[:len(full)-4]
	for n := 0; n < len(body); n++ {
		r := NewReader(body[:n])
		r.Header('X', 1)
		r.Int()
		r.Float()
		r.Float()
		r.Ints()
		r.Floats()
		r.Bytes()
		if r.Done() == nil {
			t.Fatalf("truncated to %d bytes: no error", n)
		}
	}
	if _, err := Verify(full[:len(full)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Verify of a truncated state: %v", err)
	}
	r := NewReader(append(append([]byte(nil), body...), 0))
	r.Header('X', 1)
	r.Int()
	r.Float()
	r.Float()
	r.Ints()
	r.Floats()
	r.Bytes()
	if err := r.Done(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v", err)
	}
	r = NewReader(body)
	if r.Header('X', 2); !errors.Is(r.Err(), ErrVersion) {
		t.Fatalf("unknown version: %v", r.Err())
	}
	r = NewReader(AppendInt(nil, 1<<40))
	if got := r.Floats(); got != nil || !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("oversized length prefix: %v, %v", got, r.Err())
	}
}

// AppendNested writes exactly AppendBytes's bytes for every nested
// length, whatever dst already holds and whatever room it has.
func TestAppendNestedMatchesAppendBytes(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 127, 128, 300, 1 << 14, 1<<14 + 1} {
		inner := make([]byte, n)
		for i := range inner {
			inner[i] = byte(i*7 + n)
		}
		for _, dst := range [][]byte{nil, []byte("head"), make([]byte, 3, 1<<16)} {
			want := AppendBytes(append([]byte(nil), dst...), inner)
			got := AppendNested(dst, func(b []byte) []byte { return append(b, inner...) })
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d, dst of %d: AppendNested differs from AppendBytes", n, len(dst))
			}
		}
	}
}
