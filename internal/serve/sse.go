package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// GET /v1/sessions/{id}/stream — the server-push transport over the
// subscription core in subscribe.go, framed as Server-Sent Events:
//
//	event: advisory
//	id: <slot>
//	data: {"slot":...}        one advisory, the codec's exact JSON
//
//	: hb                      keep-alive comment, Options.StreamHeartbeat
//
//	event: end
//	data: {"reason":"..."}    exactly-once terminal frame
//
// The data payload is produced by the same wire encoder the push
// responses use, so a subscribed client and a polling client see
// byte-identical advisory JSON. Frames are flushed in batches: one
// channel wakeup greedily drains everything the subscriber has buffered
// into a single write + flush, so a fast producer costs one syscall per
// burst, not per advisory. The id field carries the slot number —
// contiguous per session — so a client can detect gaps after a
// reconnect.
//
// Reconnect contract: an "evicted" end means the session was
// checkpointed to the store; subscribing again transparently resumes
// it and the stream continues with the next decided slot. "deleted"
// ends follow the flushed semi-online tail advisories; "drain" means
// the server is shutting down; "lagged" means this consumer fell
// Options.StreamBuffer advisories behind and was cut off.

func (a *api) streamAdvisories(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErrorText(w, http.StatusNotImplemented, "streaming unsupported by this server")
		return
	}
	sub, err := a.m.Subscribe(r.PathValue("id"))
	if err != nil {
		// Subscription failed before the content type switched: the error
		// response is plain JSON like any other endpoint's.
		writeWireError(w, err)
		return
	}
	defer a.m.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(a.m.opts.StreamHeartbeat)
	defer hb.Stop()

	bp := wireBuf()
	defer putWireBuf(bp)
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case adv, open := <-sub.C:
			if !open {
				writeSSEEnd(w, fl, sub.Reason())
				return
			}
			buf, err := appendSSEAdvisory((*bp)[:0], adv)
			if err != nil {
				return // torn mid-stream; the client's gap detection catches it
			}
			// Batched flush: drain whatever else is already buffered into
			// the same write.
		drain:
			for {
				select {
				case adv, open := <-sub.C:
					if !open {
						*bp = buf
						_, _ = w.Write(buf)
						writeSSEEnd(w, fl, sub.Reason())
						return
					}
					if buf, err = appendSSEAdvisory(buf, adv); err != nil {
						return
					}
				default:
					break drain
				}
			}
			*bp = buf
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		case <-hb.C:
			if _, err := w.Write([]byte(": hb\n\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// appendSSEAdvisory appends one advisory frame.
func appendSSEAdvisory(dst []byte, adv *stream.Advisory) ([]byte, error) {
	dst = append(dst, "event: advisory\nid: "...)
	dst = strconv.AppendInt(dst, int64(adv.Slot), 10)
	dst = append(dst, "\ndata: "...)
	dst, err := wire.AppendAdvisory(dst, adv)
	if err != nil {
		return dst, err
	}
	return append(dst, "\n\n"...), nil
}

// writeSSEEnd emits the terminal frame. The reasons are fixed
// identifier-like strings (see subscribe.go), safe to embed verbatim.
func writeSSEEnd(w http.ResponseWriter, fl http.Flusher, reason string) {
	_, _ = w.Write([]byte("event: end\ndata: {\"reason\":\"" + reason + "\"}\n\n"))
	fl.Flush()
}
