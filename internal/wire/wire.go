// Package wire is the hand-rolled JSON codec of the serving tier's push
// hot path: an append-based encoder and a streaming scanner decoder for
// the wire types that cross the HTTP boundary on every slot
// (PushRequest in, PushResult/stream.Advisory out), with no
// encoding/json and no reflection anywhere on the happy path.
//
// The codec is not "JSON-ish": it is byte-for-byte and accept-for-accept
// compatible with the reflection-based encoding/json code it replaces,
// so tests can use encoding/json as the oracle and assert equality
// instead of mere semantic equivalence. Concretely:
//
//   - Every Append* function produces exactly the bytes json.Marshal
//     produces for the same value (same float formatting, same
//     HTML-escaping of < > &, same � replacement of invalid UTF-8,
//     same omitempty behaviour), or fails with ErrUnsupportedValue in
//     exactly the cases json.Marshal fails (non-finite floats).
//   - Every Decode* function accepts exactly the inputs a strict
//     json.Decoder (DisallowUnknownFields) accepts — including
//     case-folded field names, escaped keys, null no-ops, duplicate
//     keys with json's merge semantics, and ignored trailing data — and
//     decodes them to identical values. FuzzWireCodec hammers both
//     directions against encoding/json.
//
// Decode errors describe the problem but do not replicate
// encoding/json's error prose; callers that must preserve the exact
// reference error texts (the HTTP layer does) re-run the failed input
// through encoding/json — the input is already known to be rejected, so
// the reflection cost is paid only on malformed requests.
package wire

import (
	"errors"

	"repro/internal/stream"
)

// ErrUnsupportedValue reports a value the JSON wire format cannot carry
// (a non-finite float); it mirrors encoding/json's UnsupportedValueError
// cases for the wire types.
var ErrUnsupportedValue = errors.New("wire: unsupported value")

// PushRequest is one slot pushed to a served session: the POST
// /v1/sessions/{id}/push wire format, alone or as an element of a JSON
// array for batch pushes. serve.PushRequest aliases it.
type PushRequest struct {
	// Lambda is the slot's job volume.
	Lambda float64 `json:"lambda"`
	// Counts optionally overrides the fleet sizes for this slot
	// (time-varying data centers, Section 4.3).
	Counts []int `json:"counts,omitempty"`
}

// PushResult is one push's outcome: Decided reports whether the slot
// unlocked an advisory (semi-online algorithms buffer their lookahead
// window first). serve.PushResult aliases it.
type PushResult struct {
	Decided  bool             `json:"decided"`
	Advisory *stream.Advisory `json:"advisory,omitempty"`
}
