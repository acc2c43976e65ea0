package core

import (
	"slices"

	"hyperline/internal/hg"
)

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
