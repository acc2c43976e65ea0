package core

import (
	"context"
	"fmt"

	"hyperline/internal/hg"
)

// Strategy is one pluggable s-overlap execution engine. Implementations
// must satisfy the pipeline contract: for every distinct s in sValues
// (clamped to ≥ 1), the returned edge list is sorted by (U, V), deduped
// with U < V, and deterministic for a given hypergraph regardless of
// worker count or workload distribution — exactly what
// graph.BuildSorted's zero-copy Stage 4 requires.
//
// Weight semantics are the only permitted output difference between
// strategies: every strategy reports exact overlap counts except
// Algorithm 1 with short-circuiting, whose weights are ≥ s bounds.
type Strategy interface {
	// Algorithm returns the enum tag this strategy implements.
	Algorithm() Algorithm
	// Name is the strategy's stable human-readable identifier, used in
	// plan reporting and logs.
	Name() string
	// Edges computes the s-line edge lists for every distinct s in
	// sValues. Stats are aggregated across the whole call (per-s work
	// is not broken out; multi-s strategies may share one counting
	// pass).
	//
	// Cancellation is cooperative: implementations must poll ctx at
	// bounded granularity inside their worker loops (at most one outer
	// iteration between checks) and return ctx.Err() once it is
	// cancelled, discarding partial output. The returned error is nil
	// or a context error — strategies have no other failure modes.
	Edges(ctx context.Context, h *hg.Hypergraph, sValues []int, cfg Config) (map[int][]Edge, Stats, error)
}

// strategies is the fixed table the planner and the pipeline resolve
// Algorithm tags against, ordered by tag: strategies[a-1] implements a.
var strategies = [...]Strategy{setIntersectionStrategy{}, hashmapStrategy{}, ensembleStrategy{}}

// StrategyFor resolves a pinned algorithm tag to its strategy.
func StrategyFor(a Algorithm) (Strategy, error) {
	if a < 1 || int(a) > len(strategies) {
		return nil, fmt.Errorf("core: no strategy for algorithm %s", a)
	}
	return strategies[a-1], nil
}

// Strategies lists the strategies ordered by Algorithm tag.
func Strategies() []Strategy {
	return append([]Strategy(nil), strategies[:]...)
}

// setIntersectionStrategy is Algorithm 1. Multi-s queries run one
// independent pass per s: each pass's short-circuit point (or exact
// intersection) depends on s, so no work can be shared.
type setIntersectionStrategy struct{}

func (setIntersectionStrategy) Algorithm() Algorithm { return AlgoSetIntersection }
func (setIntersectionStrategy) Name() string         { return "set-intersection" }

func (setIntersectionStrategy) Edges(ctx context.Context, h *hg.Hypergraph, sValues []int, cfg Config) (map[int][]Edge, Stats, error) {
	return perS(ctx, h, sValues, cfg, setIntersectionEdges)
}

// hashmapStrategy is Algorithm 2. Multi-s queries run one pass per s —
// the planner routes batches to the ensemble strategy instead when the
// counter memory is affordable.
type hashmapStrategy struct{}

func (hashmapStrategy) Algorithm() Algorithm { return AlgoHashmap }
func (hashmapStrategy) Name() string         { return "hashmap" }

func (hashmapStrategy) Edges(ctx context.Context, h *hg.Hypergraph, sValues []int, cfg Config) (map[int][]Edge, Stats, error) {
	return perS(ctx, h, sValues, cfg, hashmapEdges)
}

// ensembleStrategy is Algorithm 3: one counting pass serves every
// requested s.
type ensembleStrategy struct{}

func (ensembleStrategy) Algorithm() Algorithm { return AlgoEnsemble }
func (ensembleStrategy) Name() string         { return "ensemble" }

func (ensembleStrategy) Edges(ctx context.Context, h *hg.Hypergraph, sValues []int, cfg Config) (map[int][]Edge, Stats, error) {
	return EnsembleEdges(ctx, h, sValues, cfg)
}

// perS runs an independent single-s pass per distinct s value and
// merges the work counters.
func perS(ctx context.Context, h *hg.Hypergraph, sValues []int, cfg Config, run func(context.Context, *hg.Hypergraph, int, Config) ([]Edge, Stats, error)) (map[int][]Edge, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stats Stats
	distinct := DistinctS(sValues)
	result := make(map[int][]Edge, len(distinct))
	for _, s := range distinct {
		edges, st, err := run(ctx, h, s, cfg)
		if err != nil {
			return nil, stats, err
		}
		result[s] = edges
		stats.add(st)
	}
	return result, stats, nil
}
