package hg

import (
	"fmt"
	"sort"
)

// Builder accumulates (hyperedge, vertex) incidence pairs and produces
// an immutable CSR Hypergraph. Duplicate pairs are coalesced. The zero
// value is ready to use.
type Builder struct {
	pairs []incidence
	maxE  int64 // max edge id seen, -1 if none
	maxV  int64
}

type incidence struct{ e, v uint32 }

// NewBuilder returns a Builder with capacity for n incidence pairs.
func NewBuilder(n int) *Builder {
	return &Builder{pairs: make([]incidence, 0, n), maxE: -1, maxV: -1}
}

// AddPair records that hyperedge e contains vertex v.
func (b *Builder) AddPair(e, v uint32) {
	if b.pairs == nil {
		b.maxE, b.maxV = -1, -1
	}
	b.pairs = append(b.pairs, incidence{e, v})
	if int64(e) > b.maxE {
		b.maxE = int64(e)
	}
	if int64(v) > b.maxV {
		b.maxV = int64(v)
	}
}

// AddEdge records hyperedge e with the given member vertices.
func (b *Builder) AddEdge(e uint32, vs ...uint32) {
	for _, v := range vs {
		b.AddPair(e, v)
	}
}

// Build produces the hypergraph. Vertex and edge ID spaces are sized by
// the maximum IDs seen (IDs with no incidences become empty edges /
// isolated vertices; use Preprocess to drop them). Build may be called
// once; the builder must not be reused afterwards.
func (b *Builder) Build() *Hypergraph {
	numEdges := int(b.maxE + 1)
	numVertices := int(b.maxV + 1)
	return buildCSR(b.pairs, numEdges, numVertices)
}

// BuildWithSize is like Build but forces the ID spaces to the given
// sizes, which must be large enough to cover every recorded pair.
func (b *Builder) BuildWithSize(numEdges, numVertices int) (*Hypergraph, error) {
	if int64(numEdges) <= b.maxE || int64(numVertices) <= b.maxV {
		return nil, fmt.Errorf("hg: size (%d edges, %d vertices) too small for ids (max e=%d, v=%d)",
			numEdges, numVertices, b.maxE, b.maxV)
	}
	return buildCSR(b.pairs, numEdges, numVertices), nil
}

// FromEdgeSlices builds a hypergraph where edges[i] lists the member
// vertices of hyperedge i. numVertices may be 0 to size the vertex
// space from the data.
func FromEdgeSlices(edges [][]uint32, numVertices int) *Hypergraph {
	n := 0
	for _, e := range edges {
		n += len(e)
	}
	b := NewBuilder(n)
	for i, e := range edges {
		b.AddEdge(uint32(i), e...)
	}
	if int64(len(edges)) > b.maxE {
		b.maxE = int64(len(edges)) - 1
	}
	if int64(numVertices) > b.maxV {
		b.maxV = int64(numVertices) - 1
	}
	return b.Build()
}

// buildCSR constructs both CSR orientations from incidence pairs,
// sorting adjacency lists and dropping duplicate pairs.
func buildCSR(pairs []incidence, numEdges, numVertices int) *Hypergraph {
	// Sort pairs by (e, v) to produce sorted edge rows and detect
	// duplicates in a single pass.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].e != pairs[j].e {
			return pairs[i].e < pairs[j].e
		}
		return pairs[i].v < pairs[j].v
	})
	dedup := pairs[:0]
	for i, p := range pairs {
		if i > 0 && p == pairs[i-1] {
			continue
		}
		dedup = append(dedup, p)
	}
	pairs = dedup

	// Pairs are grouped by e with sorted v: that is the edge orientation.
	eOff := make([]int64, numEdges+1)
	eAdj := make([]uint32, len(pairs))
	for i, p := range pairs {
		eOff[p.e+1]++
		eAdj[i] = p.v
	}
	for e := 0; e < numEdges; e++ {
		eOff[e+1] += eOff[e]
	}
	return fromEdgeCSR(numVertices, eOff, eAdj)
}

// fromEdgeCSR completes a hypergraph from its edge orientation (rows
// strictly sorted, IDs < numVertices), which it takes ownership of.
func fromEdgeCSR(numVertices int, eOff []int64, eAdj []uint32) *Hypergraph {
	vOff, vAdj := Transpose(eOff, eAdj, numVertices)
	return newHypergraph(len(eOff)-1, numVertices, eOff, eAdj, vOff, vAdj)
}

// Transpose derives the other orientation of a CSR incidence structure
// by counting sort: the rows off/adj over cols column IDs become cols
// rows, each listing the input rows that contain the column. Input rows
// are scanned in ascending order, so the output rows come out sorted.
// Shared by every producer that builds one orientation directly
// (Builder, Preprocess, the hgio binary readers).
func Transpose(off []int64, adj []uint32, cols int) ([]int64, []uint32) {
	// Built one slot to the right: tOff[c+1] is column c's write cursor
	// during the scatter and has advanced to row c+1's start after it.
	tOff := make([]int64, cols+2)
	for _, c := range adj {
		tOff[c+2]++
	}
	for c := 2; c < len(tOff); c++ {
		tOff[c] += tOff[c-1]
	}
	tAdj := make([]uint32, len(adj))
	for r := 0; r+1 < len(off); r++ {
		for _, c := range adj[off[r]:off[r+1]] {
			tAdj[tOff[c+1]] = uint32(r)
			tOff[c+1]++
		}
	}
	return tOff[:cols+1], tAdj
}

// EdgeSlices returns the hypergraph as a slice of vertex lists, one per
// hyperedge (a deep copy; useful for tests and serialization).
func (h *Hypergraph) EdgeSlices() [][]uint32 {
	out := make([][]uint32, h.numEdges)
	for e := 0; e < h.numEdges; e++ {
		vs := h.EdgeVertices(uint32(e))
		out[e] = append([]uint32(nil), vs...)
	}
	return out
}
