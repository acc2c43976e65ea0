package core

import (
	"slices"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// MaxOverlap returns the maximum pairwise overlap max_{e≠f} inc(e, f)
// of the hypergraph — the largest s for which the s-line graph Ls(H)
// is non-empty (the paper's "max s that produces non-singleton
// components", e.g. 16 for the condMat network). Returns 0 when no two
// hyperedges intersect.
//
// The scan is Algorithm 2's dense-store iteration with a moving
// threshold: each worker asks only for overlaps above the best it has
// seen, so after the first few hyperedges nothing is emitted and the
// 1-line graph is never materialized.
func MaxOverlap(h *hg.Hypergraph, cfg Config) int {
	m, w := h.NumEdges(), numWorkers(cfg)
	counters := newPlainCounters(w, m)
	workers := newOuterWorkers(w, h.NumVertices(), watchContext(nil)) // a flag that never trips
	best := make([]uint32, w)
	par.For(m, cfg.parOptions(), func(worker, i int) {
		st := &workers[worker]
		wedges := st.gather(h, uint32(i))
		st.seg = st.seg[:0]
		hashmapIterDense(&counters[worker], st, uint32(i), int(best[worker])+1, stage3Tune{}.dense(wedges, m-i-1))
		for _, e := range st.seg {
			best[worker] = max(best[worker], e.W)
		}
	})
	return int(slices.Max(best))
}
