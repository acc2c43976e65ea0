package core

import (
	"context"

	"hyperline/internal/hg"
)

// worker1 is what an Algorithm 1 worker keeps beside its outerWorker.
// Its fields are written every outer iteration, so they sit between
// pads, like outerWorker's.
type worker1 struct {
	_             cacheLinePad
	intersections int64
	// seen de-duplicates candidate hyperedges within one outer
	// iteration ("skipping already visited hyperedges"): seen[ej]
	// holds the stamp of the last ei for which ej was intersected.
	seen  []uint32
	stamp uint32
	_     cacheLinePad
}

// setIntersectionEdges is Algorithm 1, the prior state-of-the-art
// (HiPC'21) baseline: every candidate pair (ei, ej) sharing at least
// one vertex is tested by an explicit sorted-list set intersection of
// the two hyperedges' vertex lists, with the paper's heuristics:
// degree-based pruning, per-source candidate de-duplication,
// short-circuited intersections, and upper-triangle traversal.
// Cancellation is polled per outer iteration and per wedge run,
// matching Algorithm 2's granularity.
func setIntersectionEdges(ctx context.Context, h *hg.Hypergraph, s int, cfg Config) ([]Edge, Stats, error) {
	if stats, ok := allPruned(h, s, cfg); ok {
		return nil, stats, nil
	}
	workers := make([]worker1, numWorkers(cfg))
	for i := range workers {
		workers[i].seen = make([]uint32, h.NumEdges())
	}
	edges, stats, err := outerLoop(ctx, h, s, cfg, 0, func(worker int, st *outerWorker, ei uint32, _ int) bool {
		w1 := &workers[worker]
		w1.stamp++
		if w1.stamp == 0 { // wrapped: clear stale stamps
			clear(w1.seen)
			w1.stamp = 1
		}
		eiVerts := h.EdgeVertices(ei)
		for _, run := range st.runs {
			if st.stop.Stop() {
				return false
			}
			for _, ej := range run {
				if w1.seen[ej] == w1.stamp {
					continue // candidate already intersected for this ei
				}
				w1.seen[ej] = w1.stamp
				if !cfg.DisablePruning && h.EdgeSize(ej) < s {
					continue
				}
				w1.intersections++
				ejVerts := h.EdgeVertices(ej)
				if cfg.DisableShortCircuit {
					if n := hg.IntersectSize(eiVerts, ejVerts); n >= s {
						st.seg = append(st.seg, Edge{U: ei, V: ej, W: uint32(n)})
					}
				} else if hg.IntersectAtLeast(eiVerts, ejVerts, s) {
					// Short-circuit mode confirms ≥ s without
					// finishing the count; report the bound.
					st.seg = append(st.seg, Edge{U: ei, V: ej, W: uint32(s)})
				}
			}
		}
		// Wedge traversal meets this iteration's neighbors out of order.
		sortSegmentByV(st.seg)
		return true
	})
	for i := range workers {
		stats.SetIntersections += workers[i].intersections
	}
	return edges, stats, err
}
