package serve

import (
	"net/http"
	"sync"

	"repro/internal/wire"
)

// Zero-reflection encoders for the serve-owned response types on the
// hot path (push results come straight from internal/wire; session info
// and healthz are encoded here because their types live in this
// package). Each appender produces exactly json.Marshal's bytes —
// TestServeWireEncoders diffs them against encoding/json.

// wirePool recycles the response buffers of the wire encoders; like
// encPool, oversized buffers are dropped rather than pinned.
var wirePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

func wireBuf() *[]byte {
	bp := wirePool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

func putWireBuf(bp *[]byte) {
	if cap(*bp) <= pooledBufMax {
		wirePool.Put(bp)
	}
}

// writeWire finishes a response whose body was wire-encoded into *bp,
// appending the trailing newline json.Encoder emits so wire and
// writeJSON bodies end alike on the socket. err is the encode error, if
// any; it answers the same JSON 500 as writeJSON's encode-failure path.
// The buffer is recycled in all cases.
func writeWire(w http.ResponseWriter, status int, bp *[]byte, err error) {
	if err != nil {
		putWireBuf(bp)
		encodeFailure(w)
		return
	}
	*bp = append(*bp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(*bp) // the status line is out; nothing useful to do on error
	putWireBuf(bp)
}

// appendSessionInfo appends one SessionInfo object.
func appendSessionInfo(dst []byte, info *SessionInfo) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = wire.AppendString(dst, info.ID)
	dst = append(dst, `,"alg":`...)
	dst = wire.AppendString(dst, info.Alg)
	dst = append(dst, `,"name":`...)
	dst = wire.AppendString(dst, info.Name)
	dst = append(dst, `,"fed":`...)
	dst = wire.AppendInt(dst, int64(info.Fed))
	dst = append(dst, `,"decided":`...)
	dst = wire.AppendInt(dst, int64(info.Decided))
	if info.Pending != 0 {
		dst = append(dst, `,"pending":`...)
		dst = wire.AppendInt(dst, int64(info.Pending))
	}
	var err error
	dst = append(dst, `,"cum_cost":`...)
	if dst, err = wire.AppendFloat(dst, info.CumCost); err != nil {
		return dst, err
	}
	if info.Failed != "" {
		dst = append(dst, `,"failed":`...)
		dst = wire.AppendString(dst, info.Failed)
	}
	return append(dst, '}'), nil
}

// appendHealthz appends GET /v1/healthz's body: {"ok":...,"metrics":{...}}.
func appendHealthz(dst []byte, ok bool, mt *Metrics) ([]byte, error) {
	dst = append(dst, `{"ok":`...)
	dst = wire.AppendBool(dst, ok)
	dst = append(dst, `,"metrics":{"live_sessions":`...)
	dst = wire.AppendInt(dst, int64(mt.LiveSessions))
	dst = append(dst, `,"sessions_opened":`...)
	dst = wire.AppendUint(dst, mt.SessionsOpened)
	dst = append(dst, `,"sessions_resumed":`...)
	dst = wire.AppendUint(dst, mt.SessionsResumed)
	dst = append(dst, `,"sessions_evicted":`...)
	dst = wire.AppendUint(dst, mt.SessionsEvicted)
	dst = append(dst, `,"sessions_deleted":`...)
	dst = wire.AppendUint(dst, mt.SessionsDeleted)
	dst = append(dst, `,"slots_pushed":`...)
	dst = wire.AppendUint(dst, mt.SlotsPushed)
	dst = append(dst, `,"push_errors":`...)
	dst = wire.AppendUint(dst, mt.PushErrors)
	dst = append(dst, `,"pushes_shed":`...)
	dst = wire.AppendUint(dst, mt.PushesShed)
	dst = append(dst, `,"push_timeouts":`...)
	dst = wire.AppendUint(dst, mt.PushTimeouts)
	dst = append(dst, `,"store_retries":`...)
	dst = wire.AppendUint(dst, mt.StoreRetries)
	dst = append(dst, `,"wal_appends":`...)
	dst = wire.AppendUint(dst, mt.WALAppends)
	dst = append(dst, `,"wal_fsyncs":`...)
	dst = wire.AppendUint(dst, mt.WALFsyncs)
	dst = append(dst, `,"wal_recovered_sessions":`...)
	dst = wire.AppendUint(dst, mt.WALRecoveredSessions)
	dst = append(dst, `,"wal_torn_tails":`...)
	dst = wire.AppendUint(dst, mt.WALTornTails)
	dst = append(dst, `,"snapshot_corrupt":`...)
	dst = wire.AppendUint(dst, mt.SnapshotCorrupt)
	var err error
	dst = append(dst, `,"push_p50_us":`...)
	if dst, err = wire.AppendFloat(dst, mt.PushP50Micros); err != nil {
		return dst, err
	}
	dst = append(dst, `,"push_p99_us":`...)
	if dst, err = wire.AppendFloat(dst, mt.PushP99Micros); err != nil {
		return dst, err
	}
	return append(dst, '}', '}'), nil
}
