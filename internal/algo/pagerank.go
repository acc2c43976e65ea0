package algo

import (
	"math"

	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// PageRankOptions configures the PageRank solver.
type PageRankOptions struct {
	// Damping is the damping factor (default 0.85).
	Damping float64
	// Tol bounds the L1 error of the result against the exact PageRank
	// vector: ‖x − x*‖₁ ≤ Tol (default 1e-9).
	Tol float64
	// MaxIter bounds the conjugate-gradient steps (default 200).
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

// PageRank computes the PageRank vector of an undirected graph: damping
// d, a uniform teleport, and degree-0 nodes distributing their mass
// uniformly. The result sums to 1 up to the error bound. This backs the
// paper's Table II experiment, which ranks diseases by PageRank in the
// clique expansion and in higher-order s-clique graphs.
//
// On an undirected graph the only dangling nodes are the k isolated
// ones, and each gets the closed form c = (1−d)/(n − d·k). Every other
// node solves the linear system (I − d·A·D⁻¹)·x = c·1 (Gleich, Zhukov
// and Berkhin, "Fast parallel PageRank: A linear system approach",
// 2004), whose exact solution sums to 1 with the isolated nodes' mass.
// With x = D^{1/2}·z the system becomes M·z = c·D^{-1/2}·1 with
// M = I − d·D^{-1/2}·A·D^{-1/2}, symmetric positive definite with
// eigenvalues in [1−d, 1+d], which conjugate gradients (CG) solves from
// z = 0 at about 0.56 per step at d = 0.85, where the power iteration
// contracts by 0.85. CG stops once the residual r of the z-system
// satisfies ‖D^{1/2}·r‖₁ ≤ (1−d)·Tol: D^{1/2}·r is the residual of the
// x-system and ‖(I − d·A·D⁻¹)⁻¹‖₁ ≤ 1/(1−d), so ‖x − x*‖₁ ≤ Tol. It
// also stops after MaxIter steps.
//
// Each step multiplies by M once: contrib[v] = p[v]/√deg(v) per node,
// then a gather of Σ contrib[v] over each CSR row. The gather walks the
// nodes in ascending degree order (a counting sort made once per call)
// four rows at a time: the group's shortest row sets a common prefix
// summed with four independent accumulators, and each longer row
// finishes its tail on its own accumulator. The projections' rows are
// short (about eight entries), so a one-row loop waits on a single
// dependent add chain and breaks at every row end; four chains side by
// side do not. Grouping by degree leaves almost every entry in a common
// prefix.
//
// The gather is the only parallel loop (par.ForChunks over the groups:
// one worker is one plain loop, no goroutine); s-sweeps get their
// parallelism across s values instead (par.EachS). The result is
// bit-identical for any Workers/Grain/Strategy, the measures engine's
// determinism contract: every row sum is computed from the same
// operands in the same row order, starting from 0 on an accumulator of
// its own — grouping changes which rows run side by side, never the
// order of one row's additions — and every dot product and the L1
// residual are summed serially in node order; per-worker partial sums
// would make the step sizes, the step count and so the result depend
// on the partition.
func PageRank(g *graph.Graph, opt PageRankOptions) []float64 {
	rank, _ := PageRankIters(g, opt)
	return rank
}

// PageRankIters is PageRank that also reports how many CG steps ran, so
// a benchmark can tell a faster step from fewer of them.
func PageRankIters(g *graph.Graph, opt PageRankOptions) ([]float64, int) {
	opt = opt.defaults()
	n := g.NumNodes()
	if n == 0 {
		return nil, 0
	}
	d := opt.Damping
	off, adj, _, _ := g.CSR()
	order := degreeOrder(off)
	// degreeOrder lists the isolated nodes first; the gather skips them.
	k := 0
	for k < n && off[order[k]+1] == off[order[k]] {
		k++
	}
	rows := order[k:]
	c := (1 - d) / (float64(n) - d*float64(k))

	// An isolated node keeps sqrtDeg = invSqrtDeg = 0, so its entries of
	// r, p, q and z stay 0 and add nothing to any sum.
	sqrtDeg := make([]float64, n)
	invSqrtDeg := make([]float64, n)
	z := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	contrib := make([]float64, n)
	var rr, resid float64
	for u := range r {
		if deg := off[u+1] - off[u]; deg != 0 {
			sqrtDeg[u] = math.Sqrt(float64(deg))
			invSqrtDeg[u] = 1 / sqrtDeg[u]
			r[u] = c * invSqrtDeg[u]
			p[u] = r[u]
			contrib[u] = p[u] * invSqrtDeg[u]
			rr += r[u] * r[u]
			resid += c
		}
	}
	stop := (1 - d) * opt.Tol
	steps := 0
	for resid > stop && steps < opt.MaxIter {
		steps++
		// q = M·p, from contrib = D^{-1/2}·p.
		par.ForChunks((len(rows)+3)/4, opt.Par, func(_, lo, hi int) {
			gatherGroups(off, adj, contrib, q, rows[4*lo:min(4*hi, len(rows))], 0, 1)
		})
		var pq float64
		for u, s := range q {
			q[u] = p[u] - d*s*invSqrtDeg[u]
			pq += p[u] * q[u]
		}
		alpha := rr / pq
		var rrNext float64
		resid = 0
		for u := range z {
			z[u] += alpha * p[u]
			r[u] -= alpha * q[u]
			rrNext += r[u] * r[u]
			resid += math.Abs(r[u]) * sqrtDeg[u]
		}
		beta := rrNext / rr
		rr = rrNext
		for u := range p {
			p[u] = r[u] + beta*p[u]
			contrib[u] = p[u] * invSqrtDeg[u]
		}
	}
	for u := range z {
		if sqrtDeg[u] != 0 {
			z[u] *= sqrtDeg[u]
		} else {
			z[u] = c
		}
	}
	return z, steps
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
