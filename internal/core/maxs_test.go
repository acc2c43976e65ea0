package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

func TestMaxOverlapExample(t *testing.T) {
	h := paperExample()
	// Largest pairwise overlap is inc(e1,e3) = inc(e2,e3) = 3.
	if got := MaxOverlap(h, Config{}); got != 3 {
		t.Fatalf("MaxOverlap = %d, want 3", got)
	}
}

func TestMaxOverlapOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 25, 30, 7)
		want := 0
		for i := 0; i < h.NumEdges(); i++ {
			for j := i + 1; j < h.NumEdges(); j++ {
				if n := h.Inc(uint32(i), uint32(j)); n > want {
					want = n
				}
			}
		}
		for _, cfg := range []Config{
			{},
			{Workers: 3, Partition: par.Cyclic},
			{Workers: 7, Grain: 2},
		} {
			if MaxOverlap(h, cfg) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxOverlapDisjoint(t *testing.T) {
	h := hg.FromEdgeSlices([][]uint32{{0, 1}, {2, 3}, {4, 5}}, 6)
	if got := MaxOverlap(h, Config{}); got != 0 {
		t.Fatalf("MaxOverlap = %d, want 0 for disjoint edges", got)
	}
}

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
