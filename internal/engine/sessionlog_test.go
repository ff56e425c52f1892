package engine

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/wire"
)

// sessionLogInputs turns fuzz bytes into slots for the quickstart fleet
// (8 slow servers of capacity 1, 3 fast of capacity 4): a byte per slot
// whose low bits pick demand only, counts, cost functions or both, and
// whose rest picks the demand, up to 12, which every count below covers.
func sessionLogInputs(data []byte) []model.SlotInput {
	if len(data) > 32 {
		data = data[:32]
	}
	ins := make([]model.SlotInput, len(data))
	for i, b := range data {
		in := model.SlotInput{Lambda: float64(b>>2) * 12 / 63}
		if b&1 != 0 {
			in.Counts = []int{8 - int(b>>2)%3, 3 - int(b>>4)%2}
		}
		if b&2 != 0 {
			in.Costs = []costfn.Func{costfn.Affine{Idle: 1 + float64(b>>5)/4, Rate: 1}, costfn.Power{Idle: 3, Coef: 0.4, Exp: 2}}
		}
		ins[i] = in
	}
	return ins
}

// record is what a session logs of a slot it was fed: its inputs, the
// slices copied and empty ones dropped.
func record(in model.SlotInput) stream.SlotRecord {
	r := stream.SlotRecord{Lambda: in.Lambda}
	if len(in.Counts) > 0 {
		r.Counts = append([]int(nil), in.Counts...)
	}
	if len(in.Costs) > 0 {
		r.Costs = append([]costfn.Func(nil), in.Costs...)
	}
	return r
}

// viaWire returns cp with its log in the columns internal/wire decodes
// its stored form into, as the serving layer resumes it, or cp itself
// when it is not JSON-portable.
func viaWire(t *testing.T, cp *stream.Checkpoint) *stream.Checkpoint {
	t.Helper()
	if !cp.Portable() {
		return cp
	}
	enc, err := wire.AppendLogRecords([]byte{'['}, cp.Slots, false)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wire.DecodeLog(append(enc, ']'))
	if err != nil {
		t.Fatalf("decode %q: %v", enc, err)
	}
	return &stream.Checkpoint{Alg: cp.Alg, Log: l}
}

// FuzzSessionLog holds a session's replay log, kept in columns, to the
// records it was fed. An alg-b session is fed a random mix of demand-only,
// counts-bearing and cost-bearing slots — counts and costs first
// appearing anywhere, before or after a cut where the session is resumed
// from its checkpoint (as records, or as the columns internal/wire
// decodes) or restored from its state alone — next to an uncut twin,
// and must advise bit-identically to it on every slot. Then:
//
//   - the log (LogTail, and Checkpoint for a session that holds its whole
//     log) deep-equals the records fed, copied as the session copies
//     them, whatever the caller did to its buffers after the push;
//   - the stored form internal/wire encodes from the columns
//     (AppendLog) is the bytes AppendLogRecords writes of those records;
//   - a session resumed from the checkpoint — its records, or, when it
//     is JSON-portable, the columns internal/wire decodes its stored
//     form into — continues bit-identically, its state bytes included.
//
// Run with `go test -fuzz FuzzSessionLog ./internal/engine`; CI runs it
// for 30 s.
func FuzzSessionLog(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x31, 0x40, 0x52, 0x63}, uint8(3), uint8(0))
	f.Add([]byte{0x10, 0x20, 0x30, 0x41, 0x50}, uint8(2), uint8(1))
	f.Add([]byte{0x10, 0x20, 0x30, 0x41, 0x52}, uint8(3), uint8(2))
	f.Add([]byte{0x11, 0x22, 0x13, 0x20, 0x31}, uint8(0), uint8(1))
	f.Add([]byte{0x18, 0x28, 0x38}, uint8(3), uint8(2))
	f.Add([]byte{0x10, 0x20, 0x30, 0x41, 0x50}, uint8(2), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(1))

	sc, ok := Lookup("quickstart")
	if !ok {
		f.Fatal("quickstart scenario missing")
	}
	types := sc.Instance(1).Types

	f.Fuzz(func(t *testing.T, data []byte, cut, how uint8) {
		ins := sessionLogInputs(data)
		open := func() *stream.Session {
			s, err := OpenSession("alg-b", types, stream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		ref, sess := open(), open()
		var advRef, adv stream.Advisory
		push := func(in model.SlotInput) {
			t.Helper()
			// Each session gets buffers of its own, scribbled over once
			// pushed: the log must have copied them.
			a, b := in, in
			a.Counts, b.Counts = slices.Clone(in.Counts), slices.Clone(in.Counts)
			a.Costs, b.Costs = slices.Clone(in.Costs), slices.Clone(in.Costs)
			if _, err := ref.Push(a, &advRef); err != nil {
				t.Fatalf("slot %d: %v", ref.Fed()+1, err)
			}
			if _, err := sess.Push(b, &adv); err != nil || !sameAdvisory(adv, advRef) {
				t.Fatalf("slot %d: advisory %+v (%v), uncut %+v", ref.Fed(), adv, err, advRef)
			}
			for j := range b.Counts {
				b.Counts[j] = -1
			}
			for j := range b.Costs {
				b.Costs[j] = nil
			}
		}

		c := int(cut) % (len(ins) + 1)
		for _, in := range ins[:c] {
			push(in)
		}
		var err error
		switch how % 4 {
		case 1:
			sess, err = ResumeSession(sess.Checkpoint(), types, stream.Options{})
		case 3:
			sess, err = ResumeSession(viaWire(t, sess.Checkpoint()), types, stream.Options{})
		case 2:
			sess, err = RestoreSessionFromState("alg-b", sess.AppendState(nil), types, stream.Options{})
		}
		if err != nil {
			t.Fatalf("cut at slot %d: %v", c, err)
		}
		for _, in := range ins[c:] {
			push(in)
		}

		// The log holds the records fed past its base.
		want := make([]stream.SlotRecord, 0, len(ins))
		for _, in := range ins[sess.LogBase():] {
			want = append(want, record(in))
		}
		tail := sess.LogTail()
		if got := tail.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("log %+v, fed %+v", got, want)
		}
		more := sess.LogBase() > 0
		enc, err := wire.AppendLog(nil, &tail, more)
		encRecs, errRecs := wire.AppendLogRecords(nil, want, more)
		if err != nil || errRecs != nil || !bytes.Equal(enc, encRecs) {
			t.Fatalf("columns encode to %q (%v), records to %q (%v)", enc, err, encRecs, errRecs)
		}
		if sess.LogBase() > 0 {
			return
		}

		cp := sess.Checkpoint()
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(cp.Slots, want) || cp.Log != nil {
			t.Fatalf("checkpoint %+v, fed %+v", cp, want)
		}
		resumed := []*stream.Session{sess}
		for _, from := range []*stream.Checkpoint{cp, viaWire(t, cp)} {
			again, err := ResumeSession(from, types, stream.Options{})
			if err != nil {
				t.Fatalf("resume from the checkpoint: %v", err)
			}
			resumed = append(resumed, again)
		}
		for _, in := range sessionLogInputs([]byte{0x15, 0x26, 0x37}) {
			if _, err := ref.Push(in, &advRef); err != nil {
				t.Fatal(err)
			}
			for i, s := range resumed {
				if _, err := s.Push(in, &adv); err != nil || !sameAdvisory(adv, advRef) {
					t.Fatalf("resumed session %d: slot %d advisory %+v (%v), uncut %+v", i, s.Fed(), adv, err, advRef)
				}
			}
		}
		state := ref.AppendState(nil)
		for i, s := range resumed {
			if got := s.AppendState(nil); !bytes.Equal(got, state) {
				t.Fatalf("resumed session %d saves another state", i)
			}
		}
	})
}

// A session fed demands alone keeps its replay log at 8 bytes a slot,
// plus what append's growth leaves spare: at most 12 bytes a slot of
// live heap after 100 000 slots, opened fresh and resumed from a
// 10 000-slot checkpoint alike (a log of records took 56 and more).
func TestSessionLogBytesPerSlot(t *testing.T) {
	sc, ok := Lookup("quickstart")
	if !ok {
		t.Fatal("quickstart scenario missing")
	}
	ins := sc.Instance(1)
	feed := func(s *stream.Session, n int) {
		var adv stream.Advisory
		for range n {
			if _, err := s.Push(model.SlotInput{Lambda: ins.Lambda[s.Fed()%len(ins.Lambda)]}, &adv); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func(cp *stream.Checkpoint) *stream.Session {
		s, err := OpenSession("alg-b", ins.Types, stream.Options{})
		if cp != nil {
			s, err = ResumeSession(cp, ins.Types, stream.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// A first session puts the trace's layers in the memo, which the
	// measured sessions then only read.
	feed(open(nil), 2*len(ins.Lambda))

	const slots, resumed = 100_000, 10_000
	cp := &stream.Checkpoint{Alg: "alg-b", Slots: make([]stream.SlotRecord, resumed)}
	for i := range cp.Slots {
		cp.Slots[i].Lambda = ins.Lambda[i%len(ins.Lambda)]
	}
	for _, from := range []*stream.Checkpoint{nil, cp} {
		before := heap()
		s := open(from)
		feed(s, slots)
		perSlot := float64(heap()-before) / float64(s.Fed())
		runtime.KeepAlive(s)
		t.Logf("%d slots, %d of them resumed: %.2f B a slot", s.Fed(), s.Fed()-slots, perSlot)
		if perSlot > 12 {
			t.Errorf("a session of %d slots, %d of them resumed, holds %.2f B a slot, want <= 12", s.Fed(), s.Fed()-slots, perSlot)
		}
	}
	runtime.KeepAlive(cp)
}
