package core

import (
	"fmt"
	"slices"
	"time"

	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// Prepared is the part of Stage 1 the incremental patcher needs from a
// post-delta hypergraph whose surviving nodes reorder (the clique
// orientation under a by-degree relabel; order-stable keys carry their
// order as an hg.Reorder instead): its working hyperedge order
// (hg.EdgeOrder) and the inverse mapping, which move edge lists between
// the original and working ID spaces. The working hypergraph itself is never built — a
// patched projection's node space and labels depend on nothing else —
// so preparing is a scan of row lengths. Assemble then runs the same
// Stage-4 code path as RunBatch, which is what makes a patched
// projection byte-identical to a from-scratch recompute. Toplex keys
// are never patched, so there is no Stage 2 here.
type Prepared struct {
	edgeOrig []uint32
	toWork   []int64
	preTime  time.Duration
}

// PrepareOrder derives h's working hyperedge order under relabel, as
// Stage 1 would, reading row lengths only — a pending hg.Version's
// through its edits. relabel must be resolved: hg.RelabelAuto is a
// planner decision that must be taken before an ID space is fixed.
func PrepareOrder(h hg.Rows, relabel hg.RelabelOrder) (*Prepared, error) {
	if relabel == hg.RelabelAuto {
		return nil, fmt.Errorf("core: PrepareOrder requires a resolved relabel order, got auto")
	}
	t0 := time.Now()
	pp := &Prepared{edgeOrig: hg.EdgeOrder(h, relabel), toWork: make([]int64, h.NumEdges())}
	for i := range pp.toWork {
		pp.toWork[i] = -1
	}
	for workID, origID := range pp.edgeOrig {
		pp.toWork[origID] = int64(workID)
	}
	pp.preTime = time.Since(t0)
	return pp, nil
}

// EdgeOrig returns the working→original edge ID mapping. The slice is
// shared and must not be modified.
func (pp *Prepared) EdgeOrig() []uint32 { return pp.edgeOrig }

// OrigToWork returns the original→working edge ID mapping over the
// prepared hypergraph's edge space, -1 marking the empty rows Stage 1
// drops. The slice is shared and must not be modified.
func (pp *Prepared) OrigToWork() []int64 { return pp.toWork }

// PreprocessTime is how long PrepareOrder took; patched results report
// it as their Stage-1 time.
func (pp *Prepared) PreprocessTime() time.Duration { return pp.preTime }

// Assemble runs Stage 4 on a working-space edge list, exactly as
// RunBatch does for a squeezed key: the list must be sorted by (U, V)
// with U < V, deduped, and indexed into the working edge space. stats
// and plan label the result; the s-overlap timing is the caller's (the
// patch time, for patched projections).
func (pp *Prepared) Assemble(s int, edges []Edge, overlapTime time.Duration, stats Stats, plan PlanInfo) *PipelineResult {
	t := time.Now()
	g := graph.BuildSorted(len(pp.edgeOrig), edges, true, par.Options{})
	r := &PipelineResult{
		S:     s,
		Graph: g,
		Stats: stats,
		Timings: StageTimings{
			Preprocess: pp.preTime,
			SOverlap:   overlapTime,
			Squeeze:    time.Since(t),
		},
		Plan: plan,
	}
	r.HyperedgeIDs = make([]uint32, g.NumNodes())
	for node := 0; node < g.NumNodes(); node++ {
		r.HyperedgeIDs[node] = pp.edgeOrig[g.OrigID(uint32(node))]
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
// the frontier and counts runs. It reads ei's rows and their vertices'
// rows only, so a pending version answers it through its edits.
func OverlapCounts(h hg.Rows, ei uint32) []OverlapCount {
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
