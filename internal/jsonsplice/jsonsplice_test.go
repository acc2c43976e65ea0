package jsonsplice

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
)

// The types below mirror the two documents Write assembles: a replica's
// /v2/query answer (serve's queryHeadJSON and queryEntryJSON) and the
// router's merged answer (cluster's mergedHeadJSON). Their field order,
// types and omitempty rules are what decide the bytes.

type planJSON struct {
	Strategy string `json:"strategy"`
	Reason   string `json:"reason,omitempty"`
	Toplex   bool   `json:"toplex"`
}

type entryJSON struct {
	S            int       `json:"s"`
	Error        string    `json:"error,omitempty"`
	Cached       bool      `json:"cached"`
	Nodes        int       `json:"nodes,omitempty"`
	HyperedgeIDs []uint32  `json:"hyperedge_ids,omitempty"`
	Scores       []float64 `json:"scores,omitempty"`
}

type replicaHead struct {
	Dataset   string    `json:"dataset"`
	Version   uint64    `json:"version"`
	Kind      string    `json:"kind"`
	Measure   string    `json:"measure,omitempty"`
	Plan      *planJSON `json:"plan,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

type replicaResponse struct {
	replicaHead
	Results []entryJSON `json:"results"`
}

type routerHead struct {
	Dataset      string          `json:"dataset"`
	Version      uint64          `json:"version,omitempty"`
	VersionMixed bool            `json:"version_mixed,omitempty"`
	Kind         string          `json:"kind"`
	Measure      string          `json:"measure,omitempty"`
	Plan         json.RawMessage `json:"plan,omitempty"`
	ElapsedMS    float64         `json:"elapsed_ms"`
}

type routerResponse struct {
	routerHead
	Results []json.RawMessage `json:"results"`
}

// checkSplice fails unless Write of head and entries answers exactly
// as json.NewEncoder writes whole.
func checkSplice(t *testing.T, head, whole any, entries []Entry) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(whole); err != nil {
		want.Reset() // Encode writes nothing for a value it cannot encode
	}
	rec := httptest.NewRecorder()
	Write(rec, http.StatusTeapot, head, entries)
	if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("spliced body differs from the encoder's:\n got  %q\n want %q", rec.Body.Bytes(), want.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	if _, _, ok := Split(rec.Body.Bytes(), rec.Header().Get(EntriesHeader)); want.Len() > 0 && !ok {
		t.Fatalf("Split rejects the written body %q under its index %q", rec.Body.Bytes(), rec.Header().Get(EntriesHeader))
	}
}

// spliceDoc is one document for Write: its head and entries, and the
// whole document as encoding/json would encode it.
type spliceDoc struct {
	head, whole any
	entries     []Entry
}

// spliceDocs generates the replica and the router document of one fuzz
// input: pre-encoded entries beside entries encoded on the spot, per-s
// errors carrying errMsg, and a plan when there are entries. It returns
// nil for an input whose entries cannot be pre-encoded.
func spliceDocs(dataset, measure, errMsg string, version uint64, elapsed float64, n uint8, mixed bool) []spliceDoc {
	entries := make([]entryJSON, int(n)%9)
	spliced := make([]Entry, len(entries))
	raws := make([]json.RawMessage, len(entries))
	for i := range entries {
		e := entryJSON{S: i + 1, Cached: i%3 == 0}
		if i%2 == 1 {
			e.Error = errMsg
		} else {
			e.Nodes = i
			e.HyperedgeIDs = []uint32{uint32(i), uint32(version)}
			e.Scores = []float64{elapsed, float64(i) / 3}
		}
		raw, err := json.Marshal(e)
		if err != nil {
			return nil // a non-finite float: the entry is never pre-encoded
		}
		entries[i], raws[i] = e, raw
		spliced[i] = Entry{Raw: raw}
		if i%3 == 2 {
			spliced[i] = Entry{Value: e}
		}
	}
	var plan *planJSON
	if len(entries) > 0 {
		plan = &planJSON{Strategy: measure, Reason: errMsg, Toplex: mixed}
	}

	rh := replicaHead{Dataset: dataset, Version: version, Kind: "line", Measure: measure, Plan: plan, ElapsedMS: elapsed}
	mh := routerHead{Dataset: dataset, VersionMixed: mixed, Kind: "clique", Measure: measure, ElapsedMS: elapsed}
	if !mixed {
		mh.Version = version
	}
	if plan != nil {
		mh.Plan, _ = json.Marshal(plan) // strings and bools always marshal
	}
	return []spliceDoc{
		{rh, replicaResponse{rh, entries}, spliced},
		{mh, routerResponse{mh, raws}, spliced},
	}
}

// FuzzSpliceMatchesEncoder: for any strings (HTML, control and
// non-ASCII characters), versions, elapsed times and entry counts, the
// spliced replica and router documents — pre-encoded entries beside
// entries encoded on the spot — are byte-identical to encoding/json's
// encoding of the same document.
func FuzzSpliceMatchesEncoder(f *testing.F) {
	f.Add("paper", "pagerank", "no node at s=3", uint64(1), 0.125, uint8(3), false)
	f.Add("<d&d>", "", "\u2028\x00\x1f\"\\", uint64(0), 1e-7, uint8(0), true)
	f.Add("データ", "components", "é\xff", uint64(1<<63), 1e21, uint8(8), false)
	f.Add("", "", "", uint64(7), 0.0, uint8(1), true)
	f.Add("d", "", "", uint64(1), math.NaN(), uint8(0), false)
	f.Fuzz(func(t *testing.T, dataset, measure, errMsg string, version uint64, elapsed float64, n uint8, mixed bool) {
		for _, d := range spliceDocs(dataset, measure, errMsg, version, elapsed, n, mixed) {
			checkSplice(t, d.head, d.whole, d.entries)
		}
	})
}

// FuzzSplitMatchesDecoder: (a) for every document Write produces, Split
// under the written index cuts out exactly the entries encoding/json
// reads, and the head closed with "}" decodes to the document without
// its "results"; (b) for any body and index — the written body under a
// fuzzed index among them — Split never panics, and a body it accepts
// is exactly its pieces joined back.
func FuzzSplitMatchesDecoder(f *testing.F) {
	const body = `{"dataset":"d","kind":"line","elapsed_ms":0,"results":[{"s":1,"cached":true},{"s":2,"error":"x","cached":false}]}` + "\n"
	const overflow = "99999999999999999999999"
	for _, index := range []string{
		"43,21,34",   // the body's own index
		"23,21,34",   // a head length pointing inside a string
		"43,21,34,5", // one length too many
		"43,21",      // one too few
		"43,-21,34",  // a negative length
		overflow + ",21,34",
		"43,55",     // one length spanning both entries
		"43,21,340", // a length past the body's end
		"", ",", "43,,21,34", "43,21,34,",
	} {
		f.Add("d", "", "", uint64(1), 0.5, uint8(2), false, []byte(body), index)
	}
	f.Add("d", "pagerank", `no node"],{"s":9,"cached":true}`, uint64(2), 1.5, uint8(4), false, []byte(body), "43,21,34")
	f.Add("", "", "", uint64(0), 0.0, uint8(0), true, []byte(`{"d":1,"results":[]}`+"\n"), "6") // zero entries
	f.Fuzz(func(t *testing.T, dataset, measure, errMsg string, version uint64, elapsed float64, n uint8, mixed bool, body []byte, index string) {
		for _, d := range spliceDocs(dataset, measure, errMsg, version, elapsed, n, mixed) {
			rec := httptest.NewRecorder()
			Write(rec, http.StatusOK, d.head, d.entries)
			if rec.Body.Len() == 0 {
				continue // a value that does not encode: no body to split
			}
			checkSplitMatchesDecoder(t, rec.Body.Bytes(), rec.Header().Get(EntriesHeader))
			checkSplitRejoins(t, rec.Body.Bytes(), index)
		}
		checkSplitRejoins(t, body, index)
	})
}

// checkSplitMatchesDecoder fails unless Split cuts a written body by its
// index into the entries and head encoding/json reads from it.
func checkSplitMatchesDecoder(t *testing.T, body []byte, index string) {
	t.Helper()
	head, entries, ok := Split(body, index)
	if !ok {
		t.Fatalf("Split rejects the written body %q under its index %q", body, index)
	}
	var whole, gotHead map[string]any
	var results struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &whole); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	delete(whole, "results")
	if err := json.Unmarshal(append(head[:len(head):len(head)], '}'), &gotHead); err != nil || !reflect.DeepEqual(gotHead, whole) {
		t.Fatalf("head %q closed with } decodes to %v (%v), the document's head is %v", head, gotHead, err, whole)
	}
	if len(entries) != len(results.Results) {
		t.Fatalf("Split cut %d entries, encoding/json reads %d from %q", len(entries), len(results.Results), body)
	}
	for i := range entries {
		if !bytes.Equal(entries[i], results.Results[i]) {
			t.Fatalf("entry %d: Split cut %q, encoding/json reads %q", i, entries[i], results.Results[i])
		}
	}
}

// checkSplitRejoins fails if Split accepts body under index but its
// pieces, joined back with the separators Write puts between them, are
// not body.
func checkSplitRejoins(t *testing.T, body []byte, index string) {
	t.Helper()
	head, entries, ok := Split(body, index)
	if !ok {
		return
	}
	joined := append(append(bytes.Clone(head), resultsOpen...), bytes.Join(entries, []byte(","))...)
	if joined = append(joined, resultsClose...); !bytes.Equal(joined, body) {
		t.Fatalf("Split accepted %q under index %q, but its pieces join to %q", body, index, joined)
	}
}

// TestSpliceUnencodableEntry: an entry that does not encode leaves the
// body empty, as the encoder would for the whole document.
func TestSpliceUnencodableEntry(t *testing.T) {
	head := replicaHead{Dataset: "d", Kind: "line"}
	entries := []entryJSON{{S: 1}, {S: 2, Scores: []float64{math.Inf(1)}}}
	raw, _ := json.Marshal(entries[0])
	checkSplice(t, head, replicaResponse{head, entries}, []Entry{{Raw: raw}, {Value: entries[1]}})
}
