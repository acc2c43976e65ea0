package core

import (
	"context"

	"hyperline/internal/hg"
)

// EnsembleEdges is Algorithm 3 of the paper: it computes the edge lists
// of an ensemble of s-line graphs Ls(H) for every s in sValues with a
// single counting pass, decoupling Algorithm 2's counting from edge
// emission.
//
// The stored-counter set is pruned at sMin, the smallest requested s:
// a counter below sMin can never pass any requested filter, so the
// materialization is exactly the sMin-line edge list with exact
// weights — i.e. one Algorithm 2 pass at sMin, reusing its
// thread-local counters and sort-free assembly. Each remaining s is
// then a weight filtration (W ≥ s) of that list, which preserves the
// sorted order. The filtrations are nested (s' > s implies
// L_s'(H) ⊆ L_s(H)), so each s filters the previous s's output rather
// than rescanning the base list — the total filtration work is
// Σ|result_s| instead of |base|·(number of s values) — with a
// branch-free inner loop (filterEdgesGE).
//
// As the paper notes (§VI-C), the materialization is memory-intensive
// for small sMin — O(|E(L_sMin)|), the full 1-line graph in the worst
// case — which is why the planner budgets it against the hypergraph's
// wedge-pair count. Degree-based pruning uses sMin.
//
// The result maps each distinct s (clamped to ≥ 1) to its sorted edge
// list. Duplicate s values are computed once. A cancelled ctx aborts
// cooperatively with ctx.Err() (checked inside the counting pass and
// between filtrations); a nil ctx means context.Background().
func EnsembleEdges(ctx context.Context, h *hg.Hypergraph, sValues []int, cfg Config) (map[int][]Edge, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	distinct := DistinctS(sValues)
	result := make(map[int][]Edge, len(distinct))
	if len(distinct) == 0 {
		return result, Stats{WedgesPerWorker: make([]int64, numWorkers(cfg))}, nil
	}
	sMin := distinct[0] // DistinctS sorts ascending

	base, stats, err := hashmapEdges(ctx, h, sMin, cfg)
	if err != nil {
		return nil, stats, err
	}
	result[sMin] = base

	prev := base
	for _, s := range distinct[1:] {
		filtered, err := filterEdgesGE(ctx, prev, s, cfg.parOptions())
		if err != nil {
			return nil, stats, err
		}
		prev = filtered
		result[s] = prev
		stats.Edges += int64(len(prev))
	}
	return result, stats, nil
}
