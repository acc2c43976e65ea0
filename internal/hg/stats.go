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
	// ToplexSample estimates, from a deterministic sampled containment
	// probe (SampleContainment), the fraction of non-empty hyperedges
	// that are not toplexes — i.e. the fraction Stage-2 simplification
	// would remove. It drives the planner's toplex knob; the exact ratio
	// costs a full Toplexes pass. ComputeStats and Dual leave it zero
	// (the probe, though capped, is not free and sits on latency-bounded
	// paths); populate it with SampleContainment where the toplex knob
	// is actually resolved, as the serving registry does the first time
	// a version's sample is read.
	ToplexSample float64
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
// without a pass over h. ToplexSample is left zero: the dual's sample
// is a probe of its own.
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

// Containment-probe bounds. The probe is a planner input, not an exact
// Stage-2 answer, so both the number of sampled hyperedges and the
// per-sample candidate scan are capped: the whole probe costs
// O(containmentSamples · containmentScanCap · ∆e) in the worst case,
// independent of |E|.
const (
	// containmentSamples is how many hyperedges the probe inspects,
	// spread over the ID space with a fixed stride.
	containmentSamples = 64
	// containmentScanCap bounds how many candidate containers are
	// tested per sampled hyperedge before the probe gives up on it
	// (counting it as a toplex, the conservative direction: an
	// underestimate can only make the planner skip simplification).
	containmentScanCap = 128
)

// SampleContainment estimates the fraction of hyperedges that are not
// toplexes by testing a deterministic stride-spread sample of
// non-empty hyperedges for containment in another hyperedge: the
// sample of each stride window is its first non-empty hyperedge. Empty
// rows (a deleted hyperedge's tombstone) are never sampled, because
// Stage 1 drops them before simplification sees them. A sampled
// hyperedge e counts as contained when some hyperedge f ⊇ e exists
// with f ≠ e; among identical vertex sets only the lowest ID counts as
// the toplex, matching Stage 2's duplicate rule. Candidates are scanned
// through e's lowest-degree member vertex (every container of e must
// contain it), capped at containmentScanCap candidates per sample. h
// may be a pending Version: the probe reads a few rows through it.
func SampleContainment(h Rows) float64 {
	m := h.NumEdges()
	stride := max(m/containmentSamples, 1)
	sampled, contained := 0, 0
	for lo := 0; lo < m; lo += stride {
		for e := lo; e < min(lo+stride, m); e++ {
			if h.EdgeSize(uint32(e)) == 0 {
				continue
			}
			sampled++
			if sampledEdgeContained(h, uint32(e)) {
				contained++
			}
			break
		}
	}
	if sampled == 0 {
		return 0
	}
	return float64(contained) / float64(sampled)
}

// sampledEdgeContained reports whether the non-empty hyperedge e is
// strictly contained in (or a higher-ID duplicate of) another
// hyperedge, giving up after containmentScanCap candidates.
func sampledEdgeContained(h Rows, e uint32) bool {
	verts := h.EdgeVertices(e)
	probe := verts[0]
	for _, v := range verts[1:] {
		if h.VertexDegree(v) < h.VertexDegree(probe) {
			probe = v
		}
	}
	scanned := 0
	size := len(verts)
	for _, f := range h.VertexEdges(probe) {
		if f == e {
			continue
		}
		fs := h.EdgeSize(f)
		if fs < size || (fs == size && f > e) {
			continue // too small, or the duplicate rule keeps e
		}
		if scanned++; scanned > containmentScanCap {
			return false
		}
		if IntersectSize(verts, h.EdgeVertices(f)) == size {
			return true
		}
	}
	return false
}

// String formats the stats as one row in the style of Table IV.
func (s Stats) String() string {
	return fmt.Sprintf("%-22s |V|=%-9d |E|=%-9d dv=%-7.1f de=%-7.1f ∆v=%-8d ∆e=%d",
		s.Name, s.NumVertices, s.NumEdges, s.AvgVertexDegree, s.AvgEdgeSize,
		s.MaxVertexDegree, s.MaxEdgeSize)
}
