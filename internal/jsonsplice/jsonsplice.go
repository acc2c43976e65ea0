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
//
// Write also sends the document's byte layout in EntriesHeader, so a
// reader cuts the entries out with Split instead of decoding the body,
// and checks an entry it cannot trust with Valid.
package jsonsplice

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// EntriesHeader is the response header in which Write sends a body's
// layout: the byte length of the head — everything before
// `,"results":[` — then the byte length of each entry, as
// comma-separated decimals.
const EntriesHeader = "Hyperline-Entries"

// resultsOpen separates the head from the entries, and resultsClose
// ends the document.
const (
	resultsOpen  = `,"results":[`
	resultsClose = "]}\n"
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
// last field "results" holding entries in order, with its Content-Length
// and its EntriesHeader. head must encode to a JSON object with at least
// one field and no "results". If head or an entry's Value does not
// encode, Write sends the status with no body and no EntriesHeader, as
// json.Encoder.Encode writes nothing for a value it cannot encode.
func Write(w http.ResponseWriter, status int, head any, entries []Entry) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if index, ok := assemble(buf, head, entries); ok {
		h.Set(EntriesHeader, string(index))
	} else {
		buf.Reset()
	}
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// assemble writes the document into buf and returns its index, or
// false if head or an entry's Value does not encode.
func assemble(buf *bytes.Buffer, head any, entries []Entry) (index []byte, ok bool) {
	enc := json.NewEncoder(buf)
	if enc.Encode(head) != nil {
		return nil, false
	}
	buf.Truncate(buf.Len() - len("}\n"))
	index = strconv.AppendInt(make([]byte, 0, 8*(len(entries)+1)), int64(buf.Len()), 10)
	buf.WriteString(resultsOpen)
	for i, e := range entries {
		if i > 0 {
			buf.WriteByte(',')
		}
		start := buf.Len()
		if e.Raw != nil {
			buf.Write(e.Raw)
		} else if enc.Encode(e.Value) != nil {
			return nil, false
		} else {
			buf.Truncate(buf.Len() - len("\n"))
		}
		index = strconv.AppendInt(append(index, ','), int64(buf.Len()-start), 10)
	}
	buf.WriteString(resultsClose)
	return index, true
}

// Split cuts body into the head and entries its index — an
// EntriesHeader value — describes. It checks the framing only: the
// lengths must tile body exactly, with `,"results":[` after the head, a
// comma between entries and "]}\n" at the end, and no entry may be
// empty. It does not validate the JSON. The returned slices alias body.
func Split(body []byte, index string) (head []byte, entries [][]byte, ok bool) {
	field, index, more := strings.Cut(index, ",")
	n, ok := length(field, len(body))
	if !ok || !bytes.HasPrefix(body[n:], []byte(resultsOpen)) {
		return nil, nil, false
	}
	head, body = body[:n], body[n+len(resultsOpen):]
	if more {
		entries = make([][]byte, 0, min(strings.Count(index, ",")+1, len(body)))
	}
	for more {
		field, index, more = strings.Cut(index, ",")
		if n, ok = length(field, len(body)); !ok || n == 0 {
			return nil, nil, false
		}
		entries, body = append(entries, body[:n]), body[n:]
		if more {
			if len(body) == 0 || body[0] != ',' {
				return nil, nil, false
			}
			body = body[1:]
		}
	}
	if string(body) != resultsClose {
		return nil, nil, false
	}
	return head, entries, true
}

// length parses one index field: a decimal byte length of at most limit.
func length(field string, limit int) (int, bool) {
	n := 0
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > limit {
			return 0, false
		}
	}
	return n, field != ""
}
