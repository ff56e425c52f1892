package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
)

// buildFrame assembles one valid frame for seed construction.
func buildFrame(typ byte, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen, frameHeaderLen+1+len(payload))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-frameHeaderLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[frameHeaderLen:], castagnoli))
	return buf
}

func validLog(n int) []byte {
	log := buildFrame(recHeader, []byte(`{"alg":"lcp","fleet":{"scenario":"quickstart","seed":1}}`))
	for i := 1; i <= n; i++ {
		payload := []byte(`{"t":` + string(rune('0'+i%10)) + `,"lambda":2.5,"counts":[3,1]}`)
		log = append(log, buildFrame(recSlot, payload)...)
	}
	return log
}

// FuzzWALReplay feeds arbitrary bytes to the log scanner as a leftover
// WAL file. Whatever the corruption — truncation, bit flips, forged
// lengths, hostile frame counts — the scanner must never panic, must
// recover only whole checksummed decodable records, and the repaired
// log must accept new appends that parse back cleanly.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(validLog(0))
	f.Add(validLog(3))
	f.Add(validLog(8)[:50])
	corrupt := validLog(5)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	// A forged huge length field.
	forged := append(validLog(1), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 'S')
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The pure scanner: no panic, consumed within bounds, stable.
		hdr, recs, consumed := parseFrames(data)
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d out of bounds [0,%d]", consumed, len(data))
		}
		hdr2, recs2, consumed2 := parseFrames(data)
		if consumed2 != consumed || !reflect.DeepEqual(recs2, recs) || string(hdr2) != string(hdr) {
			t.Fatal("parseFrames is not deterministic")
		}
		// Every recovered record must re-encode into the exact frame
		// bytes at its offset: the valid prefix is real file content,
		// not an artifact of lenient parsing.
		off := int64(0)
		if hdr != nil {
			off = frameHeaderLen + 1 + int64(len(hdr))
		} else if consumed != 0 {
			t.Fatalf("no header but consumed %d", consumed)
		}
		for range recs {
			frame, body, ok := nextFrame(data[off:])
			if !ok || body[0] != recSlot {
				t.Fatalf("record at offset %d does not re-scan", off)
			}
			off += int64(frame)
		}
		if off != consumed {
			t.Fatalf("records end at %d but consumed %d", off, consumed)
		}

		// The full open path: write the bytes out, open with the file's
		// own header (or a fixed one), append, reopen, and require the
		// appended record back.
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		openHdr := hdr
		if openHdr == nil {
			openHdr = []byte("fuzz-header")
		}
		l, stats, err := Open(path, openHdr, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("Open after corruption: %v", err)
		}
		if !reflect.DeepEqual(stats.Records, recs) && !stats.Rewritten {
			t.Fatalf("Open recovered %d records, scan said %d", len(stats.Records), len(recs))
		}
		next := model.SlotInput{T: len(stats.Records) + 1, Lambda: 6.25, Counts: []int{1, 2}}
		if _, err := l.Append(next); err != nil {
			t.Fatalf("Append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		gotHdr, gotRecs, torn, err := read(path)
		if err != nil || torn {
			t.Fatalf("reread: err=%v torn=%v", err, torn)
		}
		if string(gotHdr) != string(openHdr) {
			t.Fatalf("header %q lost after repair (want %q)", gotHdr, openHdr)
		}
		want := append(append([]model.SlotInput{}, stats.Records...), next)
		if !reflect.DeepEqual(gotRecs, want) {
			t.Fatalf("after repair+append got %d records, want %d", len(gotRecs), len(want))
		}
	})
}
