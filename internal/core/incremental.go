package core

import (
	"fmt"
	"slices"
	"time"

	"hyperline/internal/graph"
	"hyperline/internal/hg"
)

// Prepared is the exported Stage 1-2 state of a pipeline run: the
// preprocessed working hypergraph plus the ID mappings needed to move
// edge lists between the original and working ID spaces. The
// incremental patcher (internal/delta) prepares the post-delta
// hypergraph once, patches each cached projection's edge list in
// original-ID space, and assembles results through the same Stage-4
// code path as RunBatch — which is what makes a patched projection
// byte-identical to a from-scratch recompute.
type Prepared struct {
	p   prepared
	cfg PipelineConfig
}

// PrepareFor runs Stage 1 (preprocess + relabel) and Stage 2 (optional
// toplex simplification) of cfg on h. cfg must be resolved: the auto
// knobs (hg.RelabelAuto, ToplexAuto) are planner decisions that must be
// taken before an ID space is fixed.
func PrepareFor(h *hg.Hypergraph, cfg PipelineConfig) (*Prepared, error) {
	if cfg.Core.Relabel == hg.RelabelAuto {
		return nil, fmt.Errorf("core: PrepareFor requires a resolved relabel order, got auto")
	}
	if cfg.Toplex == ToplexAuto {
		return nil, fmt.Errorf("core: PrepareFor requires a resolved toplex mode, got auto")
	}
	return &Prepared{p: prepare(h, cfg), cfg: cfg}, nil
}

// NumWorkEdges returns the working hypergraph's hyperedge count — the
// node ID space Stage-4 edge lists must index into.
func (pp *Prepared) NumWorkEdges() int { return pp.p.work.NumEdges() }

// OrigToWork returns the original→working edge ID mapping over an
// original ID space of size origEdges (-1 marks hyperedges the
// preprocessing dropped: empty rows, and non-toplexes when Stage 2
// ran). It is the inverse of the EdgeOrig mapping RunBatch uses to
// label results.
func (pp *Prepared) OrigToWork(origEdges int) []int64 {
	out := make([]int64, origEdges)
	for i := range out {
		out[i] = -1
	}
	for workID, origID := range pp.p.edgeOrig {
		out[origID] = int64(workID)
	}
	return out
}

// Assemble runs Stage 4 on a working-space edge list, exactly as
// RunBatch does: the list must be sorted by (U, V) with U < V, deduped,
// and indexed into the working edge space. stats and plan label the
// result; preprocessing timings come from this Prepared, the s-overlap
// timing is the caller's (the patch time, for patched projections).
func (pp *Prepared) Assemble(s int, edges []Edge, overlapTime time.Duration, stats Stats, plan PlanInfo) *PipelineResult {
	t := time.Now()
	g := graph.BuildSorted(pp.p.work.NumEdges(), edges, !pp.cfg.NoSqueeze, pp.cfg.Core.parOptions())
	r := &PipelineResult{
		S:     s,
		Graph: g,
		Stats: stats,
		Timings: StageTimings{
			Preprocess: pp.p.preTime,
			Toplex:     pp.p.topTime,
			SOverlap:   overlapTime,
			Squeeze:    time.Since(t),
		},
		Plan: plan,
	}
	r.HyperedgeIDs = make([]uint32, g.NumNodes())
	for node := 0; node < g.NumNodes(); node++ {
		r.HyperedgeIDs[node] = pp.p.edgeOrig[g.OrigID(uint32(node))]
	}
	return r
}

// OverlapCount is one exact overlap count emitted by OverlapCounts.
type OverlapCount struct {
	Edge  uint32 // the 2-hop neighbor hyperedge
	Count uint32 // |e ∩ neighbor|
}

// OverlapCounts is one outer iteration of Algorithm 2 for hyperedge ei
// over its full 2-hop frontier (not just the upper triangle): every
// hyperedge sharing at least one vertex with ei is returned with its
// exact overlap count, in ascending neighbor ID order. This is the
// kernel the incremental patcher recounts inserted hyperedges with —
// the per-pair counts are what a full Algorithm-2 pass would produce.
// A single iteration has no per-worker counters to reuse, so it sorts
// the frontier and counts runs.
func OverlapCounts(h *hg.Hypergraph, ei uint32) []OverlapCount {
	var frontier []uint32
	for _, vk := range h.EdgeVertices(ei) {
		frontier = append(frontier, h.VertexEdges(vk)...)
	}
	slices.Sort(frontier)
	var out []OverlapCount
	for _, ej := range frontier {
		switch {
		case ej == ei:
		case len(out) > 0 && out[len(out)-1].Edge == ej:
			out[len(out)-1].Count++
		default:
			out = append(out, OverlapCount{Edge: ej, Count: 1})
		}
	}
	return out
}
