package core

import (
	"slices"

	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// Edge is one s-line graph edge: hyperedges U < V are s-incident with
// overlap weight W = inc(U, V) ≥ s. When Algorithm 1 runs with
// short-circuiting enabled (the default), W is the count confirmed
// before the intersection was cut off — guaranteed ≥ s but possibly
// below the exact overlap; every other algorithm reports exact
// overlaps.
//
// Edge is an alias of graph.Edge so s-overlap output feeds directly
// into graph.BuildSorted (Stage 4).
type Edge = graph.Edge

// SortEdges orders edges by (U, V), graph.Build's canonical order,
// which canonicalizes the nondeterministic concatenation order of
// per-worker edge lists. U < V holds for every emitted edge and each U
// is owned by exactly one worker, so (U, V) is a unique key across all
// per-worker lists.
func SortEdges(edges []Edge) {
	slices.SortFunc(edges, graph.EdgeCmp)
}

// sortSegmentByV sorts one outer-iteration emission segment (constant
// U) by V. This runs inside the hot counting loop, so it is a
// hand-rolled quicksort with an insertion-sort base case: the V
// comparisons inline, unlike the function-valued comparators of
// sort.Slice / slices.SortFunc. V is unique within a segment, so no
// equal-key handling is needed.
func sortSegmentByV(seg []Edge) {
	for len(seg) > 24 {
		// Median-of-three pivot, then Hoare partition.
		mid := len(seg) / 2
		last := len(seg) - 1
		if seg[mid].V < seg[0].V {
			seg[mid], seg[0] = seg[0], seg[mid]
		}
		if seg[last].V < seg[0].V {
			seg[last], seg[0] = seg[0], seg[last]
		}
		if seg[last].V < seg[mid].V {
			seg[last], seg[mid] = seg[mid], seg[last]
		}
		pivot := seg[mid].V
		i, j := 0, last
		for {
			for seg[i].V < pivot {
				i++
			}
			for seg[j].V > pivot {
				j--
			}
			if i >= j {
				break
			}
			seg[i], seg[j] = seg[j], seg[i]
			i++
			j--
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < len(seg)-j-1 {
			sortSegmentByV(seg[:j+1])
			seg = seg[j+1:]
		} else {
			sortSegmentByV(seg[j+1:])
			seg = seg[:j+1]
		}
	}
	for i := 1; i < len(seg); i++ {
		e := seg[i]
		j := i - 1
		for j >= 0 && seg[j].V > e.V {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = e
	}
}

// edgeBlockCap is the capacity, in edges, of the blocks a worker stores
// its finished segments in: large enough that block allocations are
// noise, small enough that a worker with little output holds little.
const edgeBlockCap = 1 << 15

// put stores the iteration's segment in the worker's current block — a
// fresh block when it does not fit, never a grown copy of an old one,
// so an edge is moved once however long the run's output gets — and
// returns where it now lives. A block that is abandoned wastes less
// than the segment that did not fit.
func (st *outerWorker) put(blockCap int) []Edge {
	n := len(st.seg)
	if n == 0 {
		return nil
	}
	if cap(st.block)-len(st.block) < n {
		st.block = make([]Edge, 0, max(blockCap, n))
	}
	start := len(st.block)
	st.block = append(st.block, st.seg...)
	return st.block[start : start+n : start+n]
}

// concatSegments is the union step (Line 13 of Algorithm 2): segs[ei]
// holds hyperedge ei's edges sorted by V, so their concatenation in
// ascending ei is the (U, V)-sorted edge list — a prefix sum over the
// segment lengths and a parallel copy, with no comparison and no
// dependence on which worker produced which segment.
func concatSegments(segs [][]Edge, opt par.Options) []Edge {
	off := make([]int64, len(segs))
	for i, seg := range segs {
		off[i] = int64(len(seg))
	}
	total := par.PrefixSum(off, opt)
	if total == 0 {
		return nil
	}
	out := make([]Edge, total)
	par.ForChunks(len(segs), par.Options{Workers: opt.Workers}, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out[off[i]:], segs[i])
		}
	})
	return out
}
