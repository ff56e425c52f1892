package wire

import "strconv"

// The write-ahead log's slot-record payload codec. internal/wal frames
// these payloads with a length+CRC32C header; the payload itself is the
// same zero-alloc JSON dialect as the push path, so a WAL is both
// greppable on disk and byte-identical to what json.Marshal would
// produce for the same record (asserted by TestWALRecordCodec).

// WALRecord is one logged slot: the absolute 1-based slot index the
// serving layer assigned at append time plus the slot's input. T makes
// replay idempotent — records at or below a snapshot's slot count are
// skipped, so a crash between snapshot save and log compaction cannot
// double-apply a slot.
type WALRecord struct {
	T      int64   `json:"t"`
	Lambda float64 `json:"lambda"`
	Counts []int   `json:"counts,omitempty"`
}

// AppendWALRecord appends rec as a JSON object, byte-identical to
// json.Marshal and allocation-free beyond growing dst.
func AppendWALRecord(dst []byte, rec *WALRecord) ([]byte, error) {
	var err error
	dst = append(dst, `{"t":`...)
	dst = AppendInt(dst, rec.T)
	dst = append(dst, `,"lambda":`...)
	if dst, err = AppendFloat(dst, rec.Lambda); err != nil {
		return dst, err
	}
	if len(rec.Counts) > 0 {
		dst = append(dst, `,"counts":`...)
		dst = appendInts(dst, rec.Counts)
	}
	return append(dst, '}'), nil
}

// DecodeWALRecord decodes one WAL slot payload (or null) into dst with
// the same strict-decoder semantics as DecodePushRequest: unknown
// fields rejected, folded key matching, null no-ops, last key wins.
func DecodeWALRecord(data []byte, dst *WALRecord) error {
	d := decoder{data: data}
	d.skipWS()
	c, ok := d.peek()
	switch {
	case !ok:
		return d.fail("unexpected end of input")
	case c == '{':
		return d.walObject(dst)
	case c == 'n':
		return d.null()
	}
	return d.fail("expected object or null")
}

// walObject decodes {"t":..., "lambda":..., "counts":...} into dst.
func (d *decoder) walObject(dst *WALRecord) error {
	var buf [64]byte
	done, err := d.begin('}')
	for !done && err == nil {
		var key []byte
		if key, err = d.memberKey(buf[:0]); err != nil {
			break
		}
		switch {
		case string(key) == "t" || foldEqual(key, "T"):
			err = d.intValue(&dst.T)
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

// intValue decodes an int64 (or null no-op) into dst, rejecting
// fractions and exponents as the reference decoder does for int fields.
func (d *decoder) intValue(dst *int64) error {
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
	n, err := strconv.ParseInt(unsafeString(lit), 10, 64)
	if err != nil {
		return d.fail("number is not an int")
	}
	*dst = n
	return nil
}
