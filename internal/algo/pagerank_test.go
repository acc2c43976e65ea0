package algo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// referencePageRank is the kernel PageRank replaced, kept as the
// bit-identity reference: one division per edge per iteration through
// Neighbors/Degree, a separate dangling-mass scan, and a diffs vector
// summed in node order.
func referencePageRank(g *graph.Graph, opt PageRankOptions) ([]float64, int) {
	opt = opt.defaults()
	n := g.NumNodes()
	if n == 0 {
		return nil, 0
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for u := range rank {
		rank[u] = inv
	}
	diffs := make([]float64, n)
	iters := 0
	for iters < opt.MaxIter {
		iters++
		var danglingMass float64
		for u := 0; u < n; u++ {
			if g.Degree(uint32(u)) == 0 {
				danglingMass += rank[u]
			}
		}
		base := (1-opt.Damping)*inv + opt.Damping*danglingMass*inv
		for u := 0; u < n; u++ {
			sum := 0.0
			ids, _ := g.Neighbors(uint32(u))
			for _, v := range ids {
				sum += rank[v] / float64(g.Degree(v))
			}
			nv := base + opt.Damping*sum
			next[u] = nv
			diffs[u] = math.Abs(nv - rank[u])
		}
		rank, next = next, rank
		var delta float64
		for _, d := range diffs {
			delta += d
		}
		if delta < opt.Tol {
			break
		}
	}
	return rank, iters
}

// TestPageRankBitIdenticalToReference pins the contribution-vector
// kernel to the per-edge-division one it replaced, bit for bit and
// iteration for iteration, for every way the gather can be partitioned.
func TestPageRankBitIdenticalToReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path": pathGraph(17),
		"star": starGraph(33),
		"two-component": graph.Build(9, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 1},
			{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 7, W: 1}, {U: 7, V: 8, W: 1},
		}, true),
		// Unsqueezed with isolated nodes: the dangling-mass path.
		"isolated": graph.Build(12, []graph.Edge{
			{U: 1, V: 4, W: 1}, {U: 4, V: 9, W: 1}, {U: 1, V: 9, W: 1}, {U: 6, V: 7, W: 1},
		}, false),
	}
	r := rand.New(rand.NewSource(15))
	for k := 0; k < 20; k++ {
		n := 2 + r.Intn(120)
		graphs[fmt.Sprintf("random-%d", k)] = randomGraph(r, n, r.Intn(4*n))
	}
	for name, g := range graphs {
		for _, damping := range []float64{0.85, 0.5} {
			want, wantIters := referencePageRank(g, PageRankOptions{Damping: damping})
			for _, workers := range []int{1, 2, 3, 8} {
				for _, grain := range []int{1, 2, 64} {
					for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
						opt := PageRankOptions{Damping: damping, Par: par.Options{Workers: workers, Grain: grain, Strategy: strat}}
						got, iters := PageRankIters(g, opt)
						if iters != wantIters {
							t.Fatalf("%s d=%v w=%d g=%d %s: %d iterations, reference %d", name, damping, workers, grain, strat, iters, wantIters)
						}
						for u := range want {
							if math.IsNaN(got[u]) || math.IsInf(got[u], 0) {
								t.Fatalf("%s d=%v w=%d g=%d %s: rank[%d] = %v", name, damping, workers, grain, strat, u, got[u])
							}
							if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
								t.Fatalf("%s d=%v w=%d g=%d %s: rank[%d] = %x, reference %x", name, damping, workers, grain, strat, u, math.Float64bits(got[u]), math.Float64bits(want[u]))
							}
						}
					}
				}
			}
		}
	}
}
