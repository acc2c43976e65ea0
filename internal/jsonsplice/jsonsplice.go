// Package jsonsplice writes the /v2/query response document of both
// serving tiers: an envelope object whose last field, "results", is an
// array of entries, some of which were JSON-encoded before the request
// reached the writer — by a replica for the router, and for a cached
// entry by the first request that served it.
//
// The bytes are exactly those json.NewEncoder(w).Encode writes for the
// envelope with the entries as its last field, but pre-encoded entries
// are copied, not passed through encoding/json again: an encoder
// re-scans a json.RawMessage field to compact it, which on a warm sweep
// is most of the response's cost.
package jsonsplice

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// bufPool holds response buffers across requests, as encoding/json
// pools its own encoder state: a body is assembled once and written
// with one call, without allocating a body-sized buffer per request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Entry is one element of "results": Raw when it is non-nil — one
// value as encoding/json writes it, copied verbatim — and otherwise
// Value, encoded by encoding/json.
type Entry struct {
	Raw   []byte
	Value any
}

// Write answers with status and the JSON document head extended by a
// last field "results" holding entries in order. head must encode to a
// JSON object with at least one field and no "results". If head or an
// entry's Value does not encode, Write sends the status with no body,
// as json.Encoder.Encode writes nothing for a value it cannot encode.
func Write(w http.ResponseWriter, status int, head any, entries []Entry) {
	w.Header().Set("Content-Type", "application/json")
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if enc.Encode(head) != nil {
		w.WriteHeader(status)
		return
	}
	buf.Truncate(buf.Len() - len("}\n"))
	buf.WriteString(`,"results":[`)
	for i, e := range entries {
		if i > 0 {
			buf.WriteByte(',')
		}
		if e.Raw != nil {
			buf.Write(e.Raw)
			continue
		}
		if enc.Encode(e.Value) != nil {
			w.WriteHeader(status)
			return
		}
		buf.Truncate(buf.Len() - len("\n"))
	}
	buf.WriteString("]}\n")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
