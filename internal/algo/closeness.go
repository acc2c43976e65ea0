package algo

import (
	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// ClosenessCentrality returns the closeness centrality of every node,
// computed with the Wasserman-Faust improved formula for disconnected
// graphs:
//
//	C(u) = (r-1)/(n-1) · (r-1)/Σ_{v reachable} d(u,v)
//
// where r is the number of nodes reachable from u (u included). On an
// s-line graph this is the s-closeness centrality of the hyperedges:
// hyperedges a short s-walk away from everything score high. Isolated
// nodes score 0. Parallel over source nodes.
func ClosenessCentrality(g *graph.Graph, opt par.Options) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	w := opt.EffectiveWorkers()
	scratch := make([][]int32, w)
	queues := make([][]uint32, w)
	par.For(n, opt, func(worker, u int) {
		if scratch[worker] == nil {
			scratch[worker] = make([]int32, n)
			for i := range scratch[worker] {
				scratch[worker][i] = -1
			}
			queues[worker] = make([]uint32, 0, n)
		}
		dist := scratch[worker]
		queue := bfsInto(g, uint32(u), dist, queues[worker][:0])
		queues[worker] = queue
		var sum int64
		for _, v := range queue {
			sum += int64(dist[v])
		}
		r := len(queue) // reachable nodes including u
		if r > 1 && sum > 0 {
			frac := float64(r-1) / float64(n-1)
			out[u] = frac * float64(r-1) / float64(sum)
		}
		for _, v := range queue {
			dist[v] = -1
		}
	})
	return out
}

// HarmonicCentrality returns the harmonic centrality of every node,
// H(u) = Σ_{v≠u} 1/d(u,v) with 1/∞ = 0, normalized by (n-1). Unlike
// closeness it is well-defined on disconnected s-line graphs without
// correction factors. Parallel over source nodes.
func HarmonicCentrality(g *graph.Graph, opt par.Options) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	w := opt.EffectiveWorkers()
	scratch := make([][]int32, w)
	queues := make([][]uint32, w)
	par.For(n, opt, func(worker, u int) {
		if scratch[worker] == nil {
			scratch[worker] = make([]int32, n)
			for i := range scratch[worker] {
				scratch[worker][i] = -1
			}
			queues[worker] = make([]uint32, 0, n)
		}
		dist := scratch[worker]
		queue := bfsInto(g, uint32(u), dist, queues[worker][:0])
		queues[worker] = queue
		var sum float64
		for _, v := range queue {
			if d := dist[v]; d > 0 {
				sum += 1 / float64(d)
			}
		}
		out[u] = sum / float64(n-1)
		for _, v := range queue {
			dist[v] = -1
		}
	})
	return out
}

// Eccentricities returns the eccentricity of every node (maximum
// finite BFS distance; 0 for isolated nodes), parallel over sources.
// On an s-line graph these are the s-eccentricities; their maximum is
// the s-diameter and their minimum over non-isolated nodes the
// s-radius.
func Eccentricities(g *graph.Graph, opt par.Options) []int32 {
	n := g.NumNodes()
	out := make([]int32, n)
	w := opt.EffectiveWorkers()
	scratch := make([][]int32, w)
	queues := make([][]uint32, w)
	par.For(n, opt, func(worker, u int) {
		if scratch[worker] == nil {
			scratch[worker] = make([]int32, n)
			for i := range scratch[worker] {
				scratch[worker][i] = -1
			}
			queues[worker] = make([]uint32, 0, n)
		}
		dist := scratch[worker]
		queue := bfsInto(g, uint32(u), dist, queues[worker][:0])
		queues[worker] = queue
		var max int32
		for _, v := range queue {
			if dist[v] > max {
				max = dist[v]
			}
		}
		out[u] = max
		for _, v := range queue {
			dist[v] = -1
		}
	})
	return out
}

// bfsInto runs BFS from src writing distances into dist (which must be
// all -1) and returns the visit queue (src included). Callers must
// reset dist via the returned queue.
func bfsInto(g *graph.Graph, src uint32, dist []int32, queue []uint32) []uint32 {
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		ids, _ := g.Neighbors(u)
		for _, v := range ids {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// ClusteringCoefficients returns the local clustering coefficient of
// every node: the fraction of its neighbor pairs that are themselves
// adjacent. On s-line graphs, clustering quantifies how much
// s-incidence is transitive. Parallel over nodes; per-node cost is
// O(deg · Δ log Δ) via sorted-adjacency intersections.
func ClusteringCoefficients(g *graph.Graph, opt par.Options) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	par.For(n, opt, func(_, u int) {
		ids, _ := g.Neighbors(uint32(u))
		deg := len(ids)
		if deg < 2 {
			return
		}
		closed := 0
		for i, v := range ids {
			vIDs, _ := g.Neighbors(v)
			// Count neighbors of u after position i that are also
			// neighbors of v (each triangle counted once).
			closed += intersectCount(ids[i+1:], vIDs)
		}
		out[u] = 2 * float64(closed) / (float64(deg) * float64(deg-1))
	})
	return out
}

// GlobalClusteringCoefficient returns 3·triangles / open+closed wedge
// count (the transitivity of the graph), 0 for wedge-free graphs.
func GlobalClusteringCoefficient(g *graph.Graph, opt par.Options) float64 {
	n := g.NumNodes()
	w := opt.EffectiveWorkers()
	tri := par.NewWorkerStats(w)
	wedges := par.NewWorkerStats(w)
	par.For(n, opt, func(worker, u int) {
		ids, _ := g.Neighbors(uint32(u))
		deg := len(ids)
		if deg < 2 {
			return
		}
		wedges.Add(worker, int64(deg)*int64(deg-1)/2)
		closed := 0
		for i, v := range ids {
			vIDs, _ := g.Neighbors(v)
			closed += intersectCount(ids[i+1:], vIDs)
		}
		tri.Add(worker, int64(closed))
	})
	if wedges.Total() == 0 {
		return 0
	}
	// Each triangle contributes one closed wedge at each of its three
	// corners, and tri already counts per-corner closures.
	return float64(tri.Total()) / float64(wedges.Total())
}

func intersectCount(a, b []uint32) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
