package fault

import "testing"

// The draws are pinned: seeded chaos tests across serve and wal depend
// on every (seed, op, key, ordinal) producing exactly these values.
func TestDrawsPinned(t *testing.T) {
	cases := []struct {
		seed    int64
		op, key string
		ordinal int
		want    [3]uint64 // the draws scaled by 2^53
	}{
		{42, "save", "chaos-quickstart-alg-b", 0, [3]uint64{5033346563451895, 8885483384587694, 6125585808840751}},
		{42, "save", "chaos-quickstart-alg-b", 1, [3]uint64{6498278868103832, 5801989083017654, 7574319995898324}},
		{1, "write", "s.wal", 0, [3]uint64{8996007966016106, 4464595515609382, 7935934346933450}},
		{-7, "sync", "x.wal", 5, [3]uint64{3832770517885094, 2429123992293481, 1207974316994506}},
	}
	for _, tc := range cases {
		src := New(tc.seed)
		for range tc.ordinal {
			src.Roll(tc.op, tc.key)
		}
		d := src.Roll(tc.op, tc.key)
		for i, want := range tc.want {
			if got := d.Uniform() * (1 << 53); got != float64(want) {
				t.Errorf("seed %d %s/%s #%d draw %d = %v, want %d", tc.seed, tc.op, tc.key, tc.ordinal, i, got, want)
			}
		}
	}
}

// Ordinals count per (op, key): other calls do not shift a stream, and
// Ops counts every call.
func TestOrdinalsPerOpAndKey(t *testing.T) {
	a, b := New(3), New(3)
	a.Roll("save", "x")
	a.Roll("load", "y")
	b.Roll("save", "x")
	da, db := a.Roll("save", "x"), b.Roll("save", "x")
	if da.Uniform() != db.Uniform() {
		t.Fatal("a call on another (op, key) shifted the stream")
	}
	if a.Ops() != 3 || b.Ops() != 2 {
		t.Fatalf("Ops = %d, %d; want 3, 2", a.Ops(), b.Ops())
	}
}
