package algo

import (
	"math"

	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// PageRankOptions configures the PageRank power iteration.
type PageRankOptions struct {
	// Damping is the damping factor (default 0.85).
	Damping float64
	// Tol is the L1 convergence tolerance (default 1e-9).
	Tol float64
	// MaxIter bounds the iteration count (default 200).
	MaxIter int
	// Par configures the parallel loops.
	Par par.Options
}

func (o PageRankOptions) defaults() PageRankOptions {
	if o.Damping <= 0 || o.Damping >= 1 {
		o.Damping = 0.85
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	return o
}

// PageRank computes the PageRank vector of an undirected graph by power
// iteration. Dangling (degree-0) nodes distribute their mass uniformly.
// The result sums to 1. This backs the paper's Table II experiment,
// which ranks diseases by PageRank in the clique expansion and in
// higher-order s-clique graphs.
//
// Each iteration first writes every node's contribution
// contrib[v] = rank[v] / deg(v) — one division per node, not one per
// edge — then gathers next[u] = base + d·Σ contrib[v] over u's CSR row.
// The gather is the only parallel loop (par.ForChunks: one worker is
// one plain loop, no goroutine); s-sweeps get their parallelism across
// s values instead (par.EachS). The result is bit-identical for any
// Workers/Grain/Strategy, the measures engine's determinism contract:
// every next[u] is computed within one iteration from the same operands
// in the same row order, and the L1 convergence delta is summed serially
// in node order — per-worker partial sums would make the iteration
// count, and therefore the result, depend on the partition.
func PageRank(g *graph.Graph, opt PageRankOptions) []float64 {
	rank, _ := PageRankIters(g, opt)
	return rank
}

// PageRankIters is PageRank that also reports how many power iterations
// ran, so a benchmark can tell a faster iteration from fewer of them.
func PageRankIters(g *graph.Graph, opt PageRankOptions) ([]float64, int) {
	opt = opt.defaults()
	n := g.NumNodes()
	if n == 0 {
		return nil, 0
	}
	off, adj, _, _ := g.CSR()
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	inv := 1.0 / float64(n)
	for u := range rank {
		rank[u] = inv
	}
	iters := 0
	for iters < opt.MaxIter {
		iters++
		// A degree-0 node contributes to no row (its contrib stays 0,
		// never ±Inf/NaN); its mass redistributes uniformly.
		var danglingMass float64
		for v, r := range rank {
			if deg := off[v+1] - off[v]; deg != 0 {
				contrib[v] = r / float64(deg)
			} else {
				danglingMass += r
			}
		}
		base := (1-opt.Damping)*inv + opt.Damping*danglingMass*inv
		par.ForChunks(n, opt.Par, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				sum := 0.0
				for _, v := range adj[off[u]:off[u+1]] {
					sum += contrib[v]
				}
				next[u] = base + opt.Damping*sum
			}
		})
		var delta float64
		for u, nv := range next {
			delta += math.Abs(nv - rank[u])
		}
		rank, next = next, rank
		if delta < opt.Tol {
			break
		}
	}
	return rank, iters
}
