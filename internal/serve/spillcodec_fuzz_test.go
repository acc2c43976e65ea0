package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/measure"
	"hyperline/internal/par"
)

// spillSeedProjections are real cached projections of the paper's
// example: squeezed and unsqueezed line graphs, an empty one, and a
// clique graph.
func spillSeedProjections(t testing.TB) []*core.PipelineResult {
	h := paperExample()
	var out []*core.PipelineResult
	for _, s := range []int{1, 2, 3, 4} {
		out = append(out, direct(t, h, s, core.PipelineConfig{}))
	}
	out = append(out, direct(t, h, 1, core.PipelineConfig{NoSqueeze: true}))
	out = append(out, direct(t, h.Dual(), 2, core.PipelineConfig{}))
	return out
}

// projectionAnswer is what a decoded projection answers: its /v2/query
// entry with the edge list.
func projectionAnswer(e *projEntry) []byte {
	b, err := json.Marshal(entryJSON(QueryEntry{S: e.res.S, Res: e.res}, true))
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// FuzzDecodeProjection: any bytes decode into a projection or fail,
// never panic; a decoded projection names one hyperedge per node, and
// re-encoding it decodes to a projection that answers byte-identically.
func FuzzDecodeProjection(f *testing.F) {
	for _, res := range spillSeedProjections(f) {
		data, err := encodeProjection(&projEntry{res: res})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Regression: a well-formed payload whose meta names fewer
	// hyperedges than the graph has nodes (spill files carry no
	// checksum). It used to decode, and a measure over it indexed past
	// HyperedgeIDs.
	short := *spillSeedProjections(f)[0]
	short.HyperedgeIDs = short.HyperedgeIDs[:len(short.HyperedgeIDs)-1]
	data, err := encodeProjection(&projEntry{res: &short})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeProjection(data)
		if err != nil {
			return
		}
		if n := e.res.Graph.NumNodes(); len(e.res.HyperedgeIDs) != n {
			t.Fatalf("decoded %d hyperedge IDs for %d nodes", len(e.res.HyperedgeIDs), n)
		}
		again, err := encodeProjection(e)
		if err != nil {
			t.Fatalf("re-encoding a decoded projection: %v", err)
		}
		e2, err := decodeProjection(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded projection: %v", err)
		}
		if a, b := projectionAnswer(e), projectionAnswer(e2); !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the answer:\n%s\n%s", a, b)
		}
	})
}

// measureAnswer is what a decoded measure entry answers: its /v2/query
// entry.
func measureAnswer(e *MeasureEntry) []byte {
	b, err := json.Marshal(entryJSON(QueryEntry{S: 1, Measure: &MeasureResult{S: 1, MeasureEntry: e}}, false))
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// FuzzDecodeMeasureEntry: any bytes decode into a measure entry or
// fail, never panic, and re-encoding a decoded entry decodes to one
// that answers byte-identically.
func FuzzDecodeMeasureEntry(f *testing.F) {
	for _, res := range spillSeedProjections(f) {
		for _, name := range []string{"components", "pagerank", "connectivity", "diameter", "eccentricity"} {
			m, err := measure.Get(name)
			if err != nil {
				f.Fatal(err)
			}
			val, err := m.Compute(context.Background(), res, nil, par.Options{})
			if err != nil {
				continue // e.g. connectivity of an empty projection
			}
			data, err := encodeMeasureEntry(NewMeasureEntry(res, val))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeMeasureEntry(data)
		if err != nil {
			return
		}
		again, err := encodeMeasureEntry(e)
		if err != nil {
			t.Fatalf("re-encoding a decoded measure entry: %v", err)
		}
		e2, err := decodeMeasureEntry(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded measure entry: %v", err)
		}
		if a, b := measureAnswer(e), measureAnswer(e2); !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the answer:\n%s\n%s", a, b)
		}
	})
}
