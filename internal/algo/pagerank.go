package algo

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

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
	// MaxIter bounds the conjugate-gradient steps of each connected
	// component. By default a component gets the step count at which
	// the CG convergence bound guarantees its stopping rule (cgSteps),
	// so the Tol bound holds for every damping in (0, 1), but at most
	// twice its node count: exact CG ends within |C| steps, and the cap
	// keeps a damping near 1 from running on past the component's size.
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
// contracts by 0.85.
//
// M is block-diagonal over the connected components, so each component
// C is a CG solve of its own. It stops once its residual r_C satisfies
// ‖D^{1/2}·r_C‖₁ ≤ (1−d)·Tol·|C|/n: D^{1/2}·r is the residual of the
// x-system, the shares |C|/n sum to at most 1, and
// ‖(I − d·A·D⁻¹)⁻¹‖₁ ≤ 1/(1−d), so ‖x − x*‖₁ ≤ Tol over the whole
// graph. A small component stops when it has converged, not when the
// slowest one has: s-line graphs split into hundreds of components,
// and most are small or regular (a regular component converges in one
// step). Each component also stops after MaxIter steps.
//
// The non-isolated nodes are listed component-major and by ascending
// degree within a component (a breadth-first labelling, then a stable
// counting sort of degreeOrder by label); vectors stay indexed by node
// and the graph's CSR is read in place. Each step multiplies by M once:
// contrib[v] = p[v]/√deg(v) per node, then a gather of Σ contrib[v]
// over each row of the component's list, four rows at a time: the
// group's shortest row sets a common prefix summed with four
// independent accumulators, and each longer row finishes its tail on
// its own accumulator. The projections' rows are short (about eight
// entries), so a one-row loop waits on a single dependent add chain and
// breaks at every row end; four chains side by side do not. Grouping
// by degree leaves almost every entry in a common prefix.
//
// A component of more than half of the non-isolated nodes solves first,
// its gather spread over Par's workers in groups of four rows when the
// graph has at least minSplitGather entries (a large graph of one
// component keeps its parallel step). The other components are
// spread over the workers, largest first, one per claim, each gathered
// serially; one worker is one plain loop, no goroutine. Every dot
// product and L1 residual of a component is summed serially in its list
// order, and the grouping never changes the order of one row's
// additions, so the result is bit-identical for any
// Workers/Grain/Strategy, the measures engine's determinism contract.
// s-sweeps get their parallelism across s values (par.EachS).
func PageRank(g *graph.Graph, opt PageRankOptions) []float64 {
	rank, _ := PageRankIters(g, opt)
	return rank
}

// PageRankIters is PageRank that also reports the CG steps of the
// largest component (most nodes; the first by smallest node on a tie),
// so a benchmark can tell a faster step from fewer of them. Components
// stop on their own, and most stop sooner: on the measure-bundle input
// 87–90 % of them take one step.
func PageRankIters(g *graph.Graph, opt PageRankOptions) ([]float64, int) {
	rank, steps, _ := PageRankContext(context.Background(), g, opt)
	return rank, steps
}

// cancelEvery is how many CG steps a component takes between checks of
// the context.
const cancelEvery = 64

// PageRankContext is PageRankIters that stops on cancellation: ctx is
// checked as each component starts and every cancelEvery of its steps,
// so a cancelled solve returns ctx.Err() (and no ranks) within
// cancelEvery steps of any running component. The ranks of a solve that
// completes are PageRankIters'. A nil ctx never cancels.
func PageRankContext(ctx context.Context, g *graph.Graph, opt PageRankOptions) ([]float64, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.defaults()
	n := g.NumNodes()
	if n == 0 {
		return nil, 0, nil
	}
	d := opt.Damping
	off, adj, _, _ := g.CSR()
	nodes, bounds := splitComponents(g)
	c := (1 - d) / (float64(n) - d*float64(n-len(nodes)))
	comps := len(bounds) - 1
	nodesOf := func(j int) []uint32 { return nodes[bounds[j]:bounds[j+1]] }

	// Vectors are indexed by node; an isolated node's entries stay 0
	// until its rank is set to c at the end.
	w := cgWork{
		off: off, adj: adj, d: d, c: c,
		sqrtDeg:    make([]float64, n),
		invSqrtDeg: make([]float64, n),
		z:          make([]float64, n),
		r:          make([]float64, n),
		p:          make([]float64, n),
		q:          make([]float64, n),
		contrib:    make([]float64, n),
	}
	bound := cgSteps(d, opt.Tol, float64(n)*c/(1-d))
	steps := make([]int, comps)
	var cancelled atomic.Bool
	solve := func(j int, gather par.Options) {
		cn := nodesOf(j)
		maxIter := opt.MaxIter
		if maxIter <= 0 {
			var vol int64
			for _, u := range cn {
				vol += off[u+1] - off[u]
			}
			maxIter = min(bound(float64(vol)/float64(len(cn))), 2*len(cn))
		}
		var err error
		steps[j], err = w.solve(ctx, cn, (1-d)*opt.Tol*float64(len(cn))/float64(n), maxIter, gather)
		if err != nil {
			cancelled.Store(true)
		}
	}

	largest := 0
	for j := 1; j < comps; j++ {
		if len(nodesOf(j)) > len(nodesOf(largest)) {
			largest = j
		}
	}
	// The schedule of PageRank's doc: on a large graph, a component of
	// most of the nodes with a split gather; then the rest one per
	// claim, largest first.
	sched := make([]int, 0, comps)
	spread := opt.Par
	spread.Grain = 1
	for j := 0; j < comps; j++ {
		if j == largest && spread.EffectiveWorkers() > 1 && 2*len(nodesOf(j)) > len(nodes) && len(adj) >= minSplitGather {
			solve(j, opt.Par)
			continue
		}
		sched = append(sched, j)
	}
	if spread.EffectiveWorkers() > 1 {
		sort.SliceStable(sched, func(a, b int) bool { return len(nodesOf(sched[a])) > len(nodesOf(sched[b])) })
	}
	serial := par.Options{Workers: 1}
	par.ForChunks(len(sched), spread, func(_, first, last int) {
		for _, j := range sched[first:last] {
			solve(j, serial)
		}
	})

	iters := 0
	if comps > 0 {
		iters = steps[largest]
	}
	if cancelled.Load() {
		return nil, iters, ctx.Err()
	}
	rank := w.z
	for u := range rank {
		if off[u+1] == off[u] {
			rank[u] = c
		}
	}
	return rank, iters, nil
}

// minSplitGather is the fewest adjacency entries for which a dominant
// component's gather is split over workers. Below it a step takes tens
// of microseconds and waking a second worker for each one costs more
// than it saves: on 2 CPUs the Table II graphs (3 728 and 41 252
// entries) ran about 1.3× slower with the gather split, a 24-million-entry
// projection 1.7× faster.
const minSplitGather = 1 << 16

// cgSteps returns the number of CG steps after which the stopping rule
// ‖D^{1/2}·r_C‖₁ ≤ (1−d)·Tol·|C|/n is guaranteed for a component of a
// given average degree, where scale = n·c/(1−d) = n/(n − d·k). From
// z = 0, CG's error in the M-norm falls by 2·ρ^k with
// ρ = (√κ − 1)/(√κ + 1) and κ = (1+d)/(1−d); then
// ‖r‖₂ ≤ √(1+d)·‖e‖_M, ‖e₀‖_M ≤ ‖b‖₂/√(1−d), ‖b‖₂ ≤ c·√|C| and
// ‖D^{1/2}·r‖₁ ≤ √vol(C)·‖r‖₂ give the rule once
// ρ^k ≤ Tol/(2·√κ·scale·√avgDeg). At Tol = 1e-9 and degree 8 that is
// 41 steps at d = 0.85 and 587 at d = 0.999.
func cgSteps(d, tol, scale float64) func(avgDeg float64) int {
	sk := math.Sqrt((1 + d) / (1 - d))
	base := math.Log(2 * sk * scale / tol)
	rate := math.Log((sk + 1) / (sk - 1))
	return func(avgDeg float64) int {
		k := (base + math.Log(avgDeg)/2) / rate
		return max(1, int(math.Min(math.Ceil(k), math.MaxInt32)))
	}
}

// splitComponents lists g's non-isolated nodes component-major —
// components in the order of their smallest node — and by ascending
// degree within a component. A breadth-first search from each
// unreached node, in node order, labels the components; a stable
// counting sort of degreeOrder by label then lists them.
// Component j is nodes[bounds[j]:bounds[j+1]].
func splitComponents(g *graph.Graph) (nodes []uint32, bounds []int) {
	n := g.NumNodes()
	off, adj, _, _ := g.CSR()
	// degreeOrder lists the isolated nodes first; they are left out.
	order := degreeOrder(off)
	k := 0
	for k < n && off[order[k]+1] == off[order[k]] {
		k++
	}
	order = order[k:]
	// label[u] is u's component + 1; 0 is not reached yet. The queue
	// holds every node reached so far, so it is appended to only, and
	// the search ends once it holds every non-isolated node.
	label := make([]uint32, n)
	queue := make([]uint32, 0, len(order))
	comps := uint32(0)
	for s := 0; s < n && len(queue) < len(order); s++ {
		if label[s] != 0 || off[s+1] == off[s] {
			continue
		}
		comps++
		label[s] = comps
		queue = append(queue, uint32(s))
		for head := len(queue) - 1; head < len(queue) && len(queue) < len(order); head++ {
			u := queue[head]
			for _, v := range adj[off[u]:off[u+1]] {
				if label[v] == 0 {
					label[v] = comps
					queue = append(queue, v)
				}
			}
		}
	}
	bounds = make([]int, comps+1)
	for _, u := range order {
		bounds[label[u]]++
	}
	for l := 1; l <= int(comps); l++ {
		bounds[l] += bounds[l-1]
	}
	// bounds[l−1] is where component l's next node goes; once all are
	// placed, shifting by one gives the components' bounds.
	nodes = queue
	for _, u := range order {
		nodes[bounds[label[u]-1]] = u
		bounds[label[u]-1]++
	}
	copy(bounds[1:], bounds[:comps])
	bounds[0] = 0
	return nodes, bounds
}

// cgWork holds one PageRank call's vectors, indexed by node. A
// component reads and writes only its own nodes' entries, so
// components solve side by side without sharing a word.
type cgWork struct {
	off                                      []int64
	adj                                      []uint32
	d, c                                     float64
	sqrtDeg, invSqrtDeg, z, r, p, q, contrib []float64
}

// solve runs CG on the component of the given nodes, in degreeOrder,
// until ‖D^{1/2}·r‖₁ ≤ stop or maxIter steps, leaves its ranks in z and
// returns the steps taken. It checks ctx before its first step and every
// cancelEvery steps, and returns ctx.Err() there once it is set. The
// gather runs over gather's workers in groups of four rows; every sum
// over the component runs in node-list order on one goroutine.
func (w *cgWork) solve(ctx context.Context, nodes []uint32, stop float64, maxIter int, gather par.Options) (int, error) {
	off, adj := w.off, w.adj
	d, c := w.d, w.c
	sqrtDeg, invSqrtDeg := w.sqrtDeg, w.invSqrtDeg
	z, r, p, q, contrib := w.z, w.r, w.p, w.q, w.contrib
	var rr, resid float64
	for _, u := range nodes {
		sqrtDeg[u] = math.Sqrt(float64(off[u+1] - off[u]))
		invSqrtDeg[u] = 1 / sqrtDeg[u]
		r[u] = c * invSqrtDeg[u]
		p[u] = r[u]
		contrib[u] = p[u] * invSqrtDeg[u]
		rr += r[u] * r[u]
		resid += c
	}
	groups := (len(nodes) + 3) / 4
	steps := 0
	for resid > stop && steps < maxIter {
		if steps%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return steps, err
			}
		}
		steps++
		// q = M·p, from contrib = D^{-1/2}·p.
		if gather.EffectiveWorkers() > 1 {
			par.ForChunks(groups, gather, func(_, lo, hi int) {
				gatherGroups(off, adj, contrib, q, nodes[4*lo:min(4*hi, len(nodes))], 0, 1)
			})
		} else {
			gatherGroups(off, adj, contrib, q, nodes, 0, 1)
		}
		var pq float64
		for _, u := range nodes {
			q[u] = p[u] - d*q[u]*invSqrtDeg[u]
			pq += p[u] * q[u]
		}
		alpha := rr / pq
		var rrNext float64
		resid = 0
		for _, u := range nodes {
			z[u] += alpha * p[u]
			r[u] -= alpha * q[u]
			rrNext += r[u] * r[u]
			resid += math.Abs(r[u]) * sqrtDeg[u]
		}
		beta := rrNext / rr
		rr = rrNext
		for _, u := range nodes {
			p[u] = r[u] + beta*p[u]
			contrib[u] = p[u] * invSqrtDeg[u]
		}
	}
	for _, u := range nodes {
		z[u] *= sqrtDeg[u]
	}
	return steps, nil
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
