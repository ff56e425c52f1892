// Package wal is the per-session write-ahead log behind crash-safe
// serving: an append-only file of slot inputs framed as
//
//	[4-byte LE payload length][4-byte LE CRC-32C][type byte | payload]
//
// where the length covers the type byte plus payload and the checksum
// (Castagnoli polynomial) covers the same bytes. The first frame is a
// header ('H') carrying an opaque blob the serving layer uses to
// rebuild a session that was never snapshotted (algorithm name + fleet
// spec); every later frame is a slot record ('S'): a model.SlotInput's
// index, demand and counts in internal/wire's zero-alloc JSON encoding
// of wire.WALRecord.
//
// The log is the delta past the newest snapshot, not a full history:
// after a successful snapshot save the serving layer calls Reset, which
// truncates back to the header. Records carry their absolute 1-based
// slot index, so replay after a crash between save and Reset simply
// skips records the snapshot already covers — compaction can never
// double-apply or lose a slot.
//
// Opening a log scans it and truncates to the last whole, checksummed,
// decodable record (torn-tail repair): a crash mid-append leaves a
// partial frame that is detected and dropped, never a wedged session.
// Open is the only reader, so resume and crash recovery repair a log
// the same way. FuzzWALReplay hammers the scanner with arbitrary
// corruption.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// SyncPolicy controls when appends fsync. The zero value is SyncAlways:
// if a WAL is configured at all, the safe policy is the default.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged slot is on
	// disk before the algorithm steps, so SIGKILL loses nothing acked.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per interval: bounded loss
	// (everything since the last sync) at near-SyncNever append cost.
	// Append only checks the clock when called, so the time bound holds
	// on an idle log only if something sweeps it — the serving layer
	// flushes dirty logs on the same cadence (Manager.SyncWALs).
	SyncInterval
	// SyncNever writes without ever fsyncing: survives process death
	// (the page cache persists) but not kernel panic or power loss.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// File is the slice of *os.File the log needs; the Options.OpenFile
// seam lets tests substitute fault-injecting implementations
// (FaultFS) for deterministic torn-write and sync-failure drills.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the maximum time between fsyncs under
	// SyncInterval (default DefaultSyncInterval).
	SyncInterval time.Duration
	// Now substitutes the clock for interval-policy tests (default
	// time.Now).
	Now func() time.Time
	// OpenFile substitutes the file layer for fault injection
	// (default: os.OpenFile with O_RDWR|O_CREATE).
	OpenFile func(path string) (File, error)
}

func (o *Options) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

func (o *Options) open(path string) (File, error) {
	if o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

// DefaultSyncInterval is SyncInterval's cadence when Options leave it
// unset.
const DefaultSyncInterval = 100 * time.Millisecond

// Interval returns the cadence of the SyncInterval policy: SyncInterval,
// or DefaultSyncInterval when it is not positive.
func (o *Options) Interval() time.Duration {
	if o.SyncInterval > 0 {
		return o.SyncInterval
	}
	return DefaultSyncInterval
}

// ScanStats reports what opening a log found.
type ScanStats struct {
	// Header is the header payload the log carries once open: the
	// caller's, or the one adopted from disk when Open was passed none.
	Header []byte
	// Records are the valid slot records, in log order: each slot's
	// absolute 1-based index T (assigned at append time), demand and
	// counts. Replay skips records at or below a snapshot's slot count.
	Records []model.SlotInput
	// Torn reports that a torn or corrupt tail was truncated away.
	Torn bool
	// TornBytes is how many trailing bytes the repair dropped.
	TornBytes int64
	// Rewritten reports that the header was missing or did not match
	// the caller's, so the log was reset (Records is then empty): the
	// file belonged to a previous incarnation of the session id.
	Rewritten bool
}

const (
	frameHeaderLen = 8
	recHeader      = 'H'
	recSlot        = 'S'
	// maxFrameLen bounds a frame's length field; anything larger is
	// corruption, not a record (slot payloads are tens of bytes).
	maxFrameLen = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrLogBroken is the sticky failure after an append could not be
// rolled back (the truncate repair itself failed): the log's tail state
// is unknown, so further appends would risk interleaving garbage.
var ErrLogBroken = errors.New("wal: log broken: failed to roll back a partial append")

// ErrNoHeader is Open's answer when it was asked to adopt the header on
// disk and the file has no valid header frame; the file is left as it
// was.
var ErrNoHeader = errors.New("wal: no valid header frame")

// Log is an open per-session write-ahead log. It is not safe for
// concurrent use; the serving layer calls it under the session lock.
type Log struct {
	f        File
	path     string
	opts     Options
	buf      []byte
	size     int64 // current end-of-log offset
	hdrEnd   int64 // offset just past the header frame
	dirty    bool  // unsynced bytes outstanding
	lastSync time.Time
	broken   error
}

// Open opens (creating if absent) the log at path, scans it, repairs
// any torn tail, and ensures its header frame equals header: a missing
// or different header means the file is a leftover from an earlier
// incarnation of the session id, so the log is reset to just the new
// header and the stale records are dropped (ScanStats.Rewritten). A nil
// header adopts the one on disk instead; a file without one then fails
// with ErrNoHeader, untouched.
func Open(path string, header []byte, opts Options) (*Log, ScanStats, error) {
	var stats ScanStats
	// A header frame over maxFrameLen would write fine but be rejected by
	// nextFrame on the next Open: the log would read as headerless and be
	// silently reset, dropping every record. Refuse it up front instead.
	if len(header)+1 > maxFrameLen {
		return nil, stats, fmt.Errorf("wal: header for %s is %d bytes; the frame limit is %d", path, len(header), maxFrameLen-1)
	}
	f, err := opts.open(path)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: open %s: %w", path, err)
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, stats, fmt.Errorf("wal: read %s: %w", path, err)
	}
	hdr, recs, consumed := parseFrames(data)
	if header == nil {
		if hdr == nil {
			f.Close()
			return nil, stats, fmt.Errorf("wal: %s: %w", path, ErrNoHeader)
		}
		header = hdr
	}
	stats.Header = header
	if int64(len(data)) > consumed {
		// Torn or corrupt tail: drop everything past the last whole
		// valid record.
		if err := f.Truncate(consumed); err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		stats.Torn = true
		stats.TornBytes = int64(len(data)) - consumed
	}
	l := &Log{f: f, path: path, opts: opts, size: consumed, lastSync: opts.now()}
	if hdr == nil || string(hdr) != string(header) {
		stats.Rewritten = len(data) > 0
		if err := l.reset(0, header); err != nil {
			f.Close()
			return nil, stats, err
		}
	} else {
		l.hdrEnd = frameHeaderLen + 1 + int64(len(hdr))
		stats.Records = recs
		if stats.Torn && opts.Sync != SyncNever {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, stats, fmt.Errorf("wal: sync %s after repair: %w", path, err)
			}
		}
	}
	return l, stats, nil
}

// Size returns the current end-of-log offset in bytes.
func (l *Log) Size() int64 { return l.size }

// Append logs one slot record, then fsyncs according to the sync
// policy; synced reports whether this append hit the disk. On a failed
// write or a failed fsync the frame is rolled back by truncation so the
// log stays valid and never retains a record whose push was not
// acknowledged; if the rollback itself fails, the log turns
// sticky-broken and every later Append fails with ErrLogBroken.
func (l *Log) Append(rec model.SlotInput) (synced bool, err error) {
	if l.broken != nil {
		return false, l.broken
	}
	w := wire.WALRecord{T: int64(rec.T), Lambda: rec.Lambda, Counts: rec.Counts}
	buf := append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, recSlot)
	buf, err = wire.AppendWALRecord(buf, &w)
	l.buf = buf[:0]
	if err != nil {
		return false, fmt.Errorf("wal: encode record %d: %w", rec.T, err)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-frameHeaderLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[frameHeaderLen:], castagnoli))
	prev := l.size
	if err := l.write(buf); err != nil {
		return false, fmt.Errorf("wal: append record %d: %w", rec.T, err)
	}
	switch l.opts.Sync {
	case SyncAlways:
		err = l.Sync()
		synced = err == nil
	case SyncInterval:
		if l.opts.now().Sub(l.lastSync) >= l.opts.Interval() {
			err = l.Sync()
			synced = err == nil
		}
	}
	if err != nil {
		// The record is written but not durable, so the push must fail —
		// and the frame must not outlive the failure. The slot index is
		// server-assigned, so the next acknowledged push reuses it, and
		// replay is first-wins on duplicate indices: a leftover unacked
		// frame would shadow the acked one after a crash whenever the
		// retry carried different data. Roll it back like a failed write.
		if terr := l.f.Truncate(prev); terr != nil {
			l.broken = fmt.Errorf("%w (sync: %v, rollback: %v)", ErrLogBroken, err, terr)
			return false, l.broken
		}
		l.size = prev
		return false, fmt.Errorf("wal: sync record %d: %w", rec.T, err)
	}
	return synced, nil
}

// write appends buf at the end of the log, rolling back on failure.
func (l *Log) write(buf []byte) error {
	n, err := l.f.WriteAt(buf, l.size)
	if err != nil || n < len(buf) {
		if err == nil {
			err = io.ErrShortWrite
		}
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("%w (append: %v, rollback: %v)", ErrLogBroken, err, terr)
			return l.broken
		}
		return err
	}
	l.size += int64(len(buf))
	l.dirty = true
	return nil
}

// Dirty reports whether the log holds written bytes not yet fsynced.
func (l *Log) Dirty() bool { return l.dirty }

// Sync fsyncs outstanding writes regardless of policy.
func (l *Log) Sync() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.lastSync = l.opts.now()
	return nil
}

// Reset compacts the log down to its header frame. The serving layer
// calls it after a successful snapshot save: everything the log held is
// now covered by the snapshot.
func (l *Log) Reset() error {
	if l.broken != nil {
		return l.broken
	}
	if l.size == l.hdrEnd {
		return nil
	}
	if err := l.f.Truncate(l.hdrEnd); err != nil {
		return fmt.Errorf("wal: reset %s: %w", l.path, err)
	}
	l.size = l.hdrEnd
	l.dirty = true
	if l.opts.Sync != SyncNever {
		if err := l.Sync(); err != nil {
			return fmt.Errorf("wal: reset %s: %w", l.path, err)
		}
	}
	return nil
}

// reset truncates to length keep and writes a fresh header frame.
func (l *Log) reset(keep int64, header []byte) error {
	if err := l.f.Truncate(keep); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", l.path, err)
	}
	l.size = keep
	buf := append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, recHeader)
	buf = append(buf, header...)
	l.buf = buf[:0]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-frameHeaderLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[frameHeaderLen:], castagnoli))
	if err := l.write(buf); err != nil {
		return fmt.Errorf("wal: write header of %s: %w", l.path, err)
	}
	l.hdrEnd = l.size
	if l.opts.Sync != SyncNever {
		if err := l.Sync(); err != nil {
			return fmt.Errorf("wal: sync header of %s: %w", l.path, err)
		}
	}
	return nil
}

// Close fsyncs outstanding writes (unless the policy is SyncNever) and
// closes the file.
func (l *Log) Close() error {
	var err error
	if l.broken == nil && l.opts.Sync != SyncNever {
		err = l.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseFrames scans data for the longest valid prefix: a header frame
// followed by whole, checksummed, decodable slot records. It returns
// the header payload (nil if the first frame is not a valid header),
// the records, and the number of bytes consumed by the valid prefix.
func parseFrames(data []byte) (hdr []byte, recs []model.SlotInput, consumed int64) {
	off := 0
	first := true
	for {
		frame, body, ok := nextFrame(data[off:])
		if !ok {
			return hdr, recs, int64(off)
		}
		typ := body[0]
		if first {
			if typ != recHeader {
				return nil, nil, 0
			}
			hdr = body[1:]
			first = false
			off += frame
			continue
		}
		if typ != recSlot {
			return hdr, recs, int64(off)
		}
		var w wire.WALRecord
		if err := wire.DecodeWALRecord(body[1:], &w); err != nil {
			return hdr, recs, int64(off)
		}
		recs = append(recs, model.SlotInput{T: int(w.T), Lambda: w.Lambda, Counts: w.Counts})
		off += frame
	}
}

// nextFrame validates the frame at the start of data, returning its
// total length and its body (type byte + payload).
func nextFrame(data []byte) (frame int, body []byte, ok bool) {
	if len(data) < frameHeaderLen {
		return 0, nil, false
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	if length == 0 || length > maxFrameLen || int64(len(data)-frameHeaderLen) < int64(length) {
		return 0, nil, false
	}
	body = data[frameHeaderLen : frameHeaderLen+int(length)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, nil, false
	}
	return frameHeaderLen + int(length), body, true
}

// readAll reads the file's full contents through the File seam.
func readAll(f File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fi.Size())
	n, err := f.ReadAt(buf, 0)
	if err == io.EOF || n == len(buf) {
		err = nil
	}
	return buf[:n], err
}
