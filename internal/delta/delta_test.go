package delta

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hyperline/internal/hg"
)

// paperExample is the running example hypergraph of the paper: four
// hyperedges over six vertices.
func paperExample() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{0, 1, 2, 3, 4},
		{4, 5},
	}, 6)
}

// edgeSets returns the multiset of non-empty hyperedge vertex sets,
// sorted for comparison — the delta invariant Apply/Invert preserve.
func edgeSets(h *hg.Hypergraph) [][]uint32 {
	var out [][]uint32
	for e := 0; e < h.NumEdges(); e++ {
		vs := h.EdgeVertices(uint32(e))
		if len(vs) == 0 {
			continue
		}
		out = append(out, append([]uint32(nil), vs...))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

func TestNormalizeCanonicalizes(t *testing.T) {
	base := paperExample()
	d := &Delta{
		Inserts: [][]uint32{{3, 1, 3, 0}},
		Deletes: []uint32{2, 0, 2},
	}
	if err := d.Normalize(base); err != nil {
		t.Fatal(err)
	}
	if want := [][]uint32{{0, 1, 3}}; !reflect.DeepEqual(d.Inserts, want) {
		t.Errorf("inserts not sorted/deduped: %v", d.Inserts)
	}
	if want := []uint32{0, 2}; !reflect.DeepEqual(d.Deletes, want) {
		t.Errorf("deletes not sorted/deduped: %v", d.Deletes)
	}
}

func TestNormalizeRejects(t *testing.T) {
	base := paperExample()
	cases := map[string]*Delta{
		"nil":                 nil,
		"empty":               {},
		"empty insert":        {Inserts: [][]uint32{{}}},
		"delete out of range": {Deletes: []uint32{4}},
		// Vertex 9 needs three new IDs (6, 7, 8) but the single
		// two-vertex insert only pays for two incidences.
		"vertex beyond growth bound": {Inserts: [][]uint32{{0, 9}}},
	}
	for name, d := range cases {
		if err := d.Normalize(base); err == nil {
			t.Errorf("%s: Normalize accepted %+v", name, d)
		}
	}
}

// TestNormalizeIdempotent: the growth bound counts deduplicated
// incidences, so a delta that normalizes once normalizes again (Apply
// re-normalizes what its callers already did).
func TestNormalizeIdempotent(t *testing.T) {
	base := paperExample()
	d := &Delta{Inserts: [][]uint32{{0, 8, 0}}}
	if err := d.Normalize(base); err == nil {
		t.Fatal("vertex 8 is beyond the bound of two distinct incidences; Normalize accepted it")
	}
	d = &Delta{Inserts: [][]uint32{{0, 8, 0, 1}}}
	if err := d.Normalize(base); err != nil {
		t.Fatal(err)
	}
	if err := d.Normalize(base); err != nil {
		t.Fatalf("second Normalize: %v", err)
	}
}

func TestNormalizeRejectsDoubleDelete(t *testing.T) {
	base := paperExample()
	h, err := Apply(base, &Delta{Deletes: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Delta{Deletes: []uint32{1}}).Normalize(h); err == nil {
		t.Error("Normalize accepted a delete of an already-empty row")
	}
}

func TestApplyShape(t *testing.T) {
	base := paperExample()
	d := &Delta{
		Inserts: [][]uint32{{2, 3, 6}, {0, 5}},
		Deletes: []uint32{1},
	}
	h, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", h.NumEdges())
	}
	if h.NumVertices() != 7 {
		t.Fatalf("NumVertices = %d, want 7 (vertex 6 inserted)", h.NumVertices())
	}
	// Deleted row is an in-place tombstone; survivors keep their IDs.
	if h.EdgeSize(1) != 0 {
		t.Errorf("deleted hyperedge 1 has size %d, want 0", h.EdgeSize(1))
	}
	if got := h.EdgeVertices(0); !reflect.DeepEqual(got, base.EdgeVertices(0)) {
		t.Errorf("surviving hyperedge 0 changed: %v", got)
	}
	// Inserts take the next IDs in batch order.
	if got := h.EdgeVertices(4); !reflect.DeepEqual(got, []uint32{2, 3, 6}) {
		t.Errorf("inserted hyperedge 4 = %v", got)
	}
	if got := h.EdgeVertices(5); !reflect.DeepEqual(got, []uint32{0, 5}) {
		t.Errorf("inserted hyperedge 5 = %v", got)
	}
}

func TestApplySharesNoStorage(t *testing.T) {
	base := paperExample()
	h, err := Apply(base, &Delta{Inserts: [][]uint32{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	eOffB, eAdjB, _, _ := base.CSR()
	eOffH, eAdjH, _, _ := h.CSR()
	if len(eAdjB) > 0 && len(eAdjH) > 0 && &eAdjB[0] == &eAdjH[0] {
		t.Error("Apply aliased the base eAdj array")
	}
	if &eOffB[0] == &eOffH[0] {
		t.Error("Apply aliased the base eOff array")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	base := paperExample()
	d := &Delta{
		Inserts: [][]uint32{{1, 4, 5}, {0, 3}},
		Deletes: []uint32{0, 3},
	}
	if err := d.Normalize(base); err != nil {
		t.Fatal(err)
	}
	inv := Invert(d, base)
	h1, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Apply(h1, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edgeSets(h2), edgeSets(base)) {
		t.Errorf("apply+invert changed the edge multiset:\nbase %v\ngot  %v", edgeSets(base), edgeSets(h2))
	}
}

func TestParseWireFormat(t *testing.T) {
	d, err := Parse([]byte(`{"inserts": [[0,3,7], [2,5]], "deletes": [12, 40]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserts) != 2 || len(d.Deletes) != 2 {
		t.Fatalf("parsed %+v", d)
	}
	if _, err := Parse([]byte(`{"inserts": "nope"}`)); err == nil {
		t.Error("Parse accepted a non-array inserts field")
	}
}

// FuzzDeltaWire feeds arbitrary bytes through the /v2/ingest wire
// format: decoding must never panic, and any delta that normalizes
// against the example base must apply cleanly to exactly the
// hypergraph a from-scratch build of the edited edge lists gives — all
// four CSR arrays — and round-trip through Invert back to the base's
// multiset of hyperedge vertex sets.
func FuzzDeltaWire(f *testing.F) {
	f.Add([]byte(`{"inserts": [[0,3,7]], "deletes": [1]}`))
	f.Add([]byte(`{"inserts": [[0,0,0]]}`))
	f.Add([]byte(`{"deletes": [0,1,2,3]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"inserts": [[4294967295]]}`))
	f.Add([]byte(`{"inserts": [[0,7], [6,1]]}`))               // vertex growth
	f.Add([]byte(`{"inserts": [[5,6,2]], "deletes": [3, 0]}`)) // first and last rows
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		base := paperExample()
		if err := d.Normalize(base); err != nil {
			return
		}
		inv := Invert(d, base)
		h1, err := Apply(base, d)
		if err != nil {
			t.Fatalf("normalized delta failed to apply: %v", err)
		}
		if err := h1.Validate(); err != nil {
			t.Fatalf("applied hypergraph invalid: %v", err)
		}
		edited := base.EdgeSlices()
		for _, e := range d.Deletes {
			edited[e] = nil
		}
		edited = append(edited, d.Inserts...)
		want := hg.FromEdgeSlices(edited, h1.NumVertices())
		gEOff, gEAdj, gVOff, gVAdj := h1.CSR()
		wEOff, wEAdj, wVOff, wVAdj := want.CSR()
		if !reflect.DeepEqual(gEOff, wEOff) || !reflect.DeepEqual(gEAdj, wEAdj) ||
			!reflect.DeepEqual(gVOff, wVOff) || !reflect.DeepEqual(gVAdj, wVAdj) {
			t.Fatalf("Apply differs from a rebuild of the edited edge lists for %s", data)
		}
		h2, err := Apply(h1, inv)
		if err != nil {
			t.Fatalf("inverse failed to apply: %v", err)
		}
		if !reflect.DeepEqual(edgeSets(h2), edgeSets(base)) {
			t.Fatalf("apply+invert diverged for %s", data)
		}
		// The canonical form must survive a JSON round trip.
		blob, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Parse(blob)
		if err != nil {
			t.Fatalf("re-parse of marshalled delta: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("wire round trip changed the delta: %+v vs %+v", d, d2)
		}
	})
}

// Invert returns the delta that undoes d, phrased against the
// hypergraph Apply(base, d) produced: it deletes the IDs d's inserts
// received and re-inserts the vertex lists of d's deletes. Applying d
// then Invert(d, base) restores the base's multiset of non-empty
// hyperedge vertex sets — not its ID layout: the twice-applied
// hypergraph keeps tombstone rows and appends the restored hyperedges
// at fresh IDs, which Stage 1 erases. d must be normalized against
// base.
func Invert(d *Delta, base *hg.Hypergraph) *Delta {
	inv := &Delta{}
	m := uint32(base.NumEdges())
	for i := range d.Inserts {
		inv.Deletes = append(inv.Deletes, m+uint32(i))
	}
	for _, e := range d.Deletes {
		vs := append([]uint32(nil), base.EdgeVertices(e)...)
		inv.Inserts = append(inv.Inserts, vs)
	}
	return inv
}

// Parse decodes the /v2/ingest wire format. Structural decoding only —
// the delta still needs Normalize against its base before Apply.
func Parse(data []byte) (*Delta, error) {
	var d Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("delta: bad wire format: %w", err)
	}
	return &d, nil
}
