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
// The gather walks the nodes in ascending degree order (a counting sort
// made once per call) four rows at a time: the group's shortest row
// sets a common prefix summed with four independent accumulators, and
// each longer row finishes its tail on its own accumulator. The
// projections' rows are short (about eight entries), so a one-row loop
// waits on a single dependent add chain and breaks at every row end;
// four chains side by side do not. Grouping by degree leaves almost
// every entry in a common prefix.
//
// The gather is the only parallel loop (par.ForChunks over the groups:
// one worker is one plain loop, no goroutine); s-sweeps get their
// parallelism across s values instead (par.EachS). The result is
// bit-identical for any Workers/Grain/Strategy, the measures engine's
// determinism contract: every next[u] is computed within one iteration
// from the same operands in the same row order, starting from 0 on an
// accumulator of its own — grouping changes which rows run side by
// side, never the order of one row's additions — and the L1 convergence
// delta is summed serially in node order; per-worker partial sums would
// make the iteration count, and therefore the result, depend on the
// partition.
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
	order := degreeOrder(off)
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
		par.ForChunks((n+3)/4, opt.Par, func(_, lo, hi int) {
			gatherGroups(off, adj, contrib, next, order[4*lo:min(4*hi, n)], base, opt.Damping)
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

// degreeOrder returns the nodes sorted by ascending degree, in node
// order within a degree: a counting sort in O(n + maxdeg).
func degreeOrder(off []int64) []uint32 {
	n := len(off) - 1
	maxDeg := int64(0)
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, off[u+1]-off[u])
	}
	start := make([]int, maxDeg+2)
	for u := 0; u < n; u++ {
		start[off[u+1]-off[u]+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	order := make([]uint32, n)
	for u := 0; u < n; u++ {
		d := off[u+1] - off[u]
		order[start[d]] = uint32(u)
		start[d]++
	}
	return order
}

// gatherGroups writes next[u] = base + d·Σ contrib[v] over u's row for
// every u in nodes, a run of degreeOrder, four rows at a time. Within a
// group degrees ascend, so the first row's length is the common prefix
// of all four. Each row is summed in its own row order from 0 on its
// own accumulator, exactly as a one-row loop sums it.
func gatherGroups(off []int64, adj []uint32, contrib, next []float64, nodes []uint32, base, d float64) {
	for len(nodes) >= 4 {
		u0, u1, u2, u3 := nodes[0], nodes[1], nodes[2], nodes[3]
		nodes = nodes[4:]
		r0 := adj[off[u0]:off[u0+1]]
		r1 := adj[off[u1]:off[u1+1]]
		r2 := adj[off[u2]:off[u2+1]]
		r3 := adj[off[u3]:off[u3+1]]
		m := len(r0)
		p1, p2, p3 := r1[:m], r2[:m], r3[:m]
		var s0, s1, s2, s3 float64
		for j, v := range r0 {
			s0 += contrib[v]
			s1 += contrib[p1[j]]
			s2 += contrib[p2[j]]
			s3 += contrib[p3[j]]
		}
		for _, v := range r1[m:] {
			s1 += contrib[v]
		}
		for _, v := range r2[m:] {
			s2 += contrib[v]
		}
		for _, v := range r3[m:] {
			s3 += contrib[v]
		}
		next[u0] = base + d*s0
		next[u1] = base + d*s1
		next[u2] = base + d*s2
		next[u3] = base + d*s3
	}
	for _, u := range nodes {
		sum := 0.0
		for _, v := range adj[off[u]:off[u+1]] {
			sum += contrib[v]
		}
		next[u] = base + d*sum
	}
}
