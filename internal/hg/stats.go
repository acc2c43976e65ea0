package hg

import "fmt"

// Stats summarizes a hypergraph with the columns of the paper's
// Table IV: vertex/edge counts, average and maximum degrees on both
// sides.
type Stats struct {
	Name            string
	NumVertices     int   // |V|
	NumEdges        int   // |E|
	Incidences      int64 // |H|, non-zeros of the incidence matrix
	AvgVertexDegree float64
	AvgEdgeSize     float64
	MaxVertexDegree int // ∆v
	MaxEdgeSize     int // ∆e
	// WedgePairs is Σ_v deg(v)·(deg(v)−1)/2: the number of unordered
	// hyperedge pairs sharing a vertex, counted with multiplicity. It
	// upper-bounds both the s-line candidate pairs and the overlap
	// counters Algorithm 3 must materialize, which makes it the
	// planner's primary cost-model input.
	WedgePairs int64
	// EdgePairs is Σ_e |e|·(|e|−1)/2, the vertex pairs the hyperedges
	// hold: the dual hypergraph's WedgePairs (see Dual).
	EdgePairs int64
}

// ComputeStats derives Table IV-style statistics for h.
func ComputeStats(name string, h *Hypergraph) Stats {
	s := Stats{
		Name:        name,
		NumVertices: h.NumVertices(),
		NumEdges:    h.NumEdges(),
		Incidences:  h.Incidences(),
	}
	if s.NumVertices > 0 {
		s.AvgVertexDegree = float64(s.Incidences) / float64(s.NumVertices)
	}
	if s.NumEdges > 0 {
		s.AvgEdgeSize = float64(s.Incidences) / float64(s.NumEdges)
	}
	for v := 0; v < s.NumVertices; v++ {
		d := h.VertexDegree(uint32(v))
		s.MaxVertexDegree = max(s.MaxVertexDegree, d)
		s.WedgePairs += int64(d) * int64(d-1) / 2
	}
	for e := 0; e < s.NumEdges; e++ {
		d := h.EdgeSize(uint32(e))
		s.MaxEdgeSize = max(s.MaxEdgeSize, d)
		s.EdgePairs += int64(d) * int64(d-1) / 2
	}
	return s
}

// Dual returns the statistics of the dual hypergraph, which swaps the
// two sides: ComputeStats(name, h.Dual()) from s = ComputeStats(…, h),
// without a pass over h.
func (s Stats) Dual(name string) Stats {
	return Stats{
		Name:            name,
		NumVertices:     s.NumEdges,
		NumEdges:        s.NumVertices,
		Incidences:      s.Incidences,
		AvgVertexDegree: s.AvgEdgeSize,
		AvgEdgeSize:     s.AvgVertexDegree,
		MaxVertexDegree: s.MaxEdgeSize,
		MaxEdgeSize:     s.MaxVertexDegree,
		WedgePairs:      s.EdgePairs,
		EdgePairs:       s.WedgePairs,
	}
}

// String formats the stats as one row in the style of Table IV.
func (s Stats) String() string {
	return fmt.Sprintf("%-22s |V|=%-9d |E|=%-9d dv=%-7.1f de=%-7.1f ∆v=%-8d ∆e=%d",
		s.Name, s.NumVertices, s.NumEdges, s.AvgVertexDegree, s.AvgEdgeSize,
		s.MaxVertexDegree, s.MaxEdgeSize)
}
