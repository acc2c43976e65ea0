package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"

	"hyperline/internal/core"
	"hyperline/internal/hgio"
)

// Codecs between the cache value types and spill payload bytes.
//
// A projection payload is a little-endian uint32 meta length, a JSON
// meta document (everything in core.PipelineResult except the graph),
// and an hgio CSR stream for the graph itself — the on-disk graph
// container hgio.ReadCSR reads, so the spilled bytes double as a
// portable projection dump. A measure payload is a gob of MeasureEntry
// (all-exported, small). Both decode back to objects that answer
// queries byte-identically to the originals; timings and plan metadata
// ride along so responses served from disk are indistinguishable.

// projectionMeta is the JSON half of a projection payload.
type projectionMeta struct {
	S            int               `json:"s"`
	HyperedgeIDs []uint32          `json:"hyperedge_ids"`
	Stats        core.Stats        `json:"stats"`
	Timings      core.StageTimings `json:"timings"`
	Plan         core.PlanInfo     `json:"plan"`
}

// encodeProjection serializes one cached pipeline result.
func encodeProjection(e *projEntry) ([]byte, error) {
	meta, err := json.Marshal(projectionMeta{
		S:            e.res.S,
		HyperedgeIDs: e.res.IDs(),
		Stats:        e.res.Stats,
		Timings:      e.res.Timings,
		Plan:         e.res.Plan,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(meta)))
	buf.Write(lenb[:])
	buf.Write(meta)
	if err := hgio.WriteCSR(&buf, e.res.Graph); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeProjection rebuilds a pipeline result from its spill payload.
func decodeProjection(data []byte) (*projEntry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("serve: projection payload too short")
	}
	metaLen := int64(binary.LittleEndian.Uint32(data))
	if int64(len(data)) < 4+metaLen {
		return nil, fmt.Errorf("serve: projection payload truncated")
	}
	var meta projectionMeta
	if err := json.Unmarshal(data[4:4+metaLen], &meta); err != nil {
		return nil, fmt.Errorf("serve: projection meta: %w", err)
	}
	g, err := hgio.ReadCSR(bytes.NewReader(data[4+metaLen:]))
	if err != nil {
		return nil, fmt.Errorf("serve: projection graph: %w", err)
	}
	// Spill files carry no checksum: a meta that names other than one
	// hyperedge per node would send measures past HyperedgeIDs.
	if len(meta.HyperedgeIDs) != g.NumNodes() {
		return nil, fmt.Errorf("serve: projection meta names %d hyperedges for %d nodes", len(meta.HyperedgeIDs), g.NumNodes())
	}
	return &projEntry{res: &core.PipelineResult{
		S:            meta.S,
		Graph:        g,
		HyperedgeIDs: meta.HyperedgeIDs,
		Stats:        meta.Stats,
		Timings:      meta.Timings,
		Plan:         meta.Plan,
	}}, nil
}

// encodeMeasureEntry serializes one cached measure evaluation.
func encodeMeasureEntry(e *MeasureEntry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeMeasureEntry rebuilds a measure entry from its spill payload.
func decodeMeasureEntry(data []byte) (*MeasureEntry, error) {
	var e MeasureEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return nil, fmt.Errorf("serve: measure payload: %w", err)
	}
	return &e, nil
}
