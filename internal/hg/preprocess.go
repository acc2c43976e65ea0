package hg

// PreprocessResult is the output of Stage 1 of the framework: a cleaned
// (and optionally relabeled) hypergraph plus the ID mappings back to the
// input.
type PreprocessResult struct {
	H *Hypergraph
	// EdgeOrig[newEdgeID] = edge ID in the input hypergraph.
	EdgeOrig []uint32
	// VertexOrig[newVertexID] = vertex ID in the input hypergraph.
	VertexOrig []uint32
}

// RelabelOrder selects the relabel-by-degree ordering applied to
// hyperedge IDs in Stage 1 (§IV Stage-1 of the paper). Relabeling by
// ascending degree, combined with the upper-triangle wedge traversal,
// improves load balance and cache reuse on skewed inputs.
type RelabelOrder uint8

const (
	// RelabelNone keeps input hyperedge IDs ("N" in Table III).
	RelabelNone RelabelOrder = iota
	// RelabelAscending orders hyperedges by non-decreasing size
	// ("A" in Table III).
	RelabelAscending
	// RelabelDescending orders hyperedges by non-increasing size
	// ("D" in Table III).
	RelabelDescending
)

// String returns the one-letter notation used in the paper's Table III.
func (r RelabelOrder) String() string {
	switch r {
	case RelabelNone:
		return "N"
	case RelabelAscending:
		return "A"
	case RelabelDescending:
		return "D"
	default:
		return "?"
	}
}

// EdgeOrder returns Stage 1's working hyperedge order: the non-empty
// rows of h in ID order, stably sorted by size for the by-degree
// orders, so EdgeOrder(h, order)[w] is the input ID of working
// hyperedge w. It reads only row lengths — a counting sort, O(m + ∆e) —
// and a pending Version answers it without a build. Under relabel N
// with squeezing the pipeline does not call it: the working IDs there
// are the input IDs.
func EdgeOrder(h Rows, order RelabelOrder) []uint32 {
	m := h.NumEdges()
	edges := make([]uint32, 0, m)
	maxSize := 0
	w := h.edgeSizes()
	for e := 0; e < m; e++ {
		if size := w.at(e); size > 0 {
			edges = append(edges, uint32(e))
			maxSize = max(maxSize, size)
		}
	}
	if order != RelabelAscending && order != RelabelDescending {
		return edges
	}
	key := func(size int) int {
		if order == RelabelDescending {
			return maxSize - size
		}
		return size
	}
	// start[k] becomes the first output slot of sort key k; scanning the
	// rows in ID order into it keeps equal sizes in ID order.
	start := make([]int, maxSize+2)
	w = h.edgeSizes()
	for e := 0; e < m; e++ {
		if size := w.at(e); size > 0 {
			start[key(size)+1]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	out := make([]uint32, len(edges))
	w = h.edgeSizes()
	for e := 0; e < m; e++ {
		if size := w.at(e); size > 0 {
			out[start[key(size)]] = uint32(e)
			start[key(size)]++
		}
	}
	return out
}

// Preprocess removes empty hyperedges and isolated vertices and applies
// the requested relabel-by-degree ordering to the hyperedge IDs
// (EdgeOrder), compacting both ID spaces. The mappings from new to
// original IDs are returned so downstream results can be reported in
// input terms.
func Preprocess(h *Hypergraph, order RelabelOrder) *PreprocessResult {
	return PreprocessOrder(h, EdgeOrder(h, order))
}

// PreprocessOrder is Preprocess with the working order already derived:
// edges must be EdgeOrder(h, order) for some order, and becomes the
// result's EdgeOrig.
func PreprocessOrder(h *Hypergraph, edges []uint32) *PreprocessResult {
	// Surviving vertices keep their relative order (vertex IDs are
	// never relabeled by degree in the paper's edge-centric setting;
	// they are only compacted). Isolated vertices keep a stale
	// vertexNew slot that no edge row reads.
	vertexNew := make([]uint32, h.numVertices)
	vertexOrig := make([]uint32, 0, h.numVertices)
	for v := 0; v < h.numVertices; v++ {
		if h.VertexDegree(uint32(v)) > 0 {
			vertexNew[v] = uint32(len(vertexOrig))
			vertexOrig = append(vertexOrig, uint32(v))
		}
	}

	// Edge rows are sorted and vertexNew is monotone, so walking the
	// survivors in their final order writes the edge orientation
	// directly — every incidence survives, no pair sort needed.
	eOff := make([]int64, len(edges)+1)
	eAdj := make([]uint32, 0, h.Incidences())
	for newE, origE := range edges {
		for _, v := range h.EdgeVertices(origE) {
			eAdj = append(eAdj, vertexNew[v])
		}
		eOff[newE+1] = int64(len(eAdj))
	}
	return &PreprocessResult{H: fromEdgeCSR(len(vertexOrig), eOff, eAdj), EdgeOrig: edges, VertexOrig: vertexOrig}
}

// InducedByEdges returns the sub-hypergraph containing only the given
// hyperedges (vertex space unchanged), plus the mapping from new edge
// IDs to the originals. Used by Stage 2 (toplex simplification).
func InducedByEdges(h *Hypergraph, keep []uint32) (*Hypergraph, []uint32) {
	b := NewBuilder(0)
	for newE, origE := range keep {
		for _, v := range h.EdgeVertices(origE) {
			b.AddPair(uint32(newE), v)
		}
	}
	nh, err := b.BuildWithSize(len(keep), h.numVertices)
	if err != nil {
		panic(err)
	}
	orig := append([]uint32(nil), keep...)
	return nh, orig
}
