package engine

import (
	"encoding/json"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/statebuf"
	"repro/internal/stream"
)

// FuzzCheckpointResume hardens the resume path the serving layer depends
// on: arbitrary JSON decoded as a stream.Checkpoint and replayed through
// the registry must never panic — malformed algs, impossible demands and
// mismatched counts all surface as errors — and any checkpoint that does
// resume must round-trip: re-checkpointing the resumed session and
// resuming again reproduces the identical session state.
//
// For algorithms with a state codec (alg-a, alg-b) the state path must
// agree with replay as well: restoring the resumed session's saved state
// alone is bit-identical to the replayed session, also on the next
// pushes. A truncated or bit-flipped state (position chosen by the
// input) is refused with an error. A state whose body byte is rewritten
// and resealed with a fresh CRC-32C passes the checksum, so the
// decoders must refuse it or restore it without panicking.
//
// The seed corpus lives under testdata/fuzz/FuzzCheckpointResume.
func FuzzCheckpointResume(f *testing.F) {
	f.Add([]byte(`{"alg":"alg-a","slots":[{"lambda":1},{"lambda":4.5},{"lambda":2}]}`))
	f.Add([]byte(`{"alg":"receding-horizon","slots":[{"lambda":3},{"lambda":0}]}`))
	f.Add([]byte(`{"alg":"alg-b","slots":[{"lambda":2,"counts":[4,1]},{"lambda":1,"counts":[2,0]}]}`))
	f.Add([]byte(`{"alg":"lcp","slots":[{"lambda":1}]}`))
	f.Add([]byte(`{"slots":[{"lambda":1}]}`))
	f.Add([]byte(`not json`))

	sc, ok := Lookup("quickstart")
	if !ok {
		f.Fatal("quickstart scenario missing")
	}
	types := sc.Instance(1).Types

	f.Fuzz(func(t *testing.T, data []byte) {
		var cp stream.Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return
		}
		// Bound the replay so the fuzzer explores shapes, not scale: huge
		// logs and astronomically sized fleets are legitimate inputs but
		// make single iterations arbitrarily slow.
		if len(cp.Slots) > 24 {
			return
		}
		for _, rec := range cp.Slots {
			if rec.Lambda > 1e6 {
				return
			}
			total := 0
			for _, c := range rec.Counts {
				if c > 64 || c < 0 {
					return
				}
				total += c
			}
			if total > 128 {
				return
			}
		}

		sess, err := ResumeSession(&cp, types, stream.Options{})
		if err != nil {
			return // invalid checkpoints must error, not panic
		}

		// Round-trip: the resumed session's own checkpoint must resume
		// bit-identically (same replay depth, same cost, same decisions).
		cp2 := sess.Checkpoint()
		if len(cp2.Slots) != len(cp.Slots) {
			t.Fatalf("resumed session logs %d slots, fed %d", len(cp2.Slots), len(cp.Slots))
		}
		again, err := ResumeSession(cp2, types, stream.Options{})
		if err != nil {
			t.Fatalf("round-tripped checkpoint failed to resume: %v", err)
		}
		if again.Fed() != sess.Fed() || again.Decided() != sess.Decided() {
			t.Fatalf("round trip changed progress: fed %d/%d decided %d/%d",
				again.Fed(), sess.Fed(), again.Decided(), sess.Decided())
		}
		if again.CumCost() != sess.CumCost() {
			t.Fatalf("round trip changed cum cost: %v != %v", again.CumCost(), sess.CumCost())
		}

		state := sess.AppendState(nil)
		if len(state) == 0 {
			return // no state codec: replay is the only path
		}
		damaged := append([]byte(nil), state...)
		pos := len(data) % (8 * len(state))
		damaged[pos/8] ^= 1 << (pos % 8)
		for _, c := range []struct {
			name  string
			state []byte
		}{
			{"truncated", state[:len(data)%len(state)]},
			{"bit-flipped", damaged},
		} {
			if _, err := RestoreSessionFromState(cp2.Alg, c.state, types, stream.Options{}); err == nil {
				t.Fatalf("%s state restored", c.name)
			}
		}
		h := crc32.ChecksumIEEE(data)
		body := append([]byte(nil), state[:len(state)-4]...)
		body[int(h>>8)%len(body)] ^= byte(h) | 1
		if got, err := RestoreSessionFromState(cp2.Alg, statebuf.AppendChecksum(body, 0), types, stream.Options{}); err == nil {
			for _, lambda := range []float64{0, 1.5, 7.25} {
				got.FeedDemand(lambda) // may fail the algorithm, never the process
			}
		}

		got, err := RestoreSessionFromState(cp2.Alg, state, types, stream.Options{})
		if err != nil {
			t.Fatalf("intact state: %v", err)
		}
		for _, lambda := range []float64{0, 1.5, 7.25} {
			a, aerr := got.FeedDemand(lambda)
			b, berr := again.FeedDemand(lambda)
			if (aerr == nil) != (berr == nil) || len(a) != len(b) {
				t.Fatalf("push %v diverged: %v/%v, %d/%d advisories", lambda, aerr, berr, len(a), len(b))
			}
			for i := range a {
				if !sameAdvisory(a[i], b[i]) {
					t.Fatalf("push %v advisory %+v, replay %+v", lambda, a[i], b[i])
				}
			}
		}
		if got.Fed() != again.Fed() || got.Decided() != again.Decided() ||
			math.Float64bits(got.CumCost()) != math.Float64bits(again.CumCost()) {
			t.Fatalf("restored vs replayed: fed %d/%d decided %d/%d cum %v/%v",
				got.Fed(), again.Fed(), got.Decided(), again.Decided(), got.CumCost(), again.CumCost())
		}
	})
}
