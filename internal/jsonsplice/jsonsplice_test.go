package jsonsplice

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
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
				return // a non-finite float: the entry is never pre-encoded
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
		checkSplice(t, rh, replicaResponse{rh, entries}, spliced)

		mh := routerHead{Dataset: dataset, VersionMixed: mixed, Kind: "clique", Measure: measure, ElapsedMS: elapsed}
		if !mixed {
			mh.Version = version
		}
		if plan != nil {
			mh.Plan, _ = json.Marshal(plan) // strings and bools always marshal
		}
		checkSplice(t, mh, routerResponse{mh, raws}, spliced)
	})
}

// TestSpliceUnencodableEntry: an entry that does not encode leaves the
// body empty, as the encoder would for the whole document.
func TestSpliceUnencodableEntry(t *testing.T) {
	head := replicaHead{Dataset: "d", Kind: "line"}
	entries := []entryJSON{{S: 1}, {S: 2, Scores: []float64{math.Inf(1)}}}
	raw, _ := json.Marshal(entries[0])
	checkSplice(t, head, replicaResponse{head, entries}, []Entry{{Raw: raw}, {Value: entries[1]}})
}
