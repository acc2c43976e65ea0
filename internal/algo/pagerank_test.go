package algo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestPageRankDegreeGroupsBitIdentical pins the four-row gather to the
// reference on the shapes that exercise its grouping: every remainder
// of a group of four, a hub whose long row is a group's tail, rows of
// one degree (no tails), isolated nodes between the others (groups of
// empty rows), and degrees that step by one between neighbouring rows
// (a tail on every longer row of a group).
func TestPageRankDegreeGroupsBitIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	r := rand.New(rand.NewSource(34))
	for n := 1; n <= 9; n++ {
		graphs[fmt.Sprintf("path-%d", n)] = pathGraph(n)
		graphs[fmt.Sprintf("random-%d", n)] = randomGraph(r, n, 2*n)
	}
	for n := 37; n <= 40; n++ {
		graphs[fmt.Sprintf("star-%d", n)] = starGraph(n)
	}
	for _, n := range []int{16, 17, 18, 19} {
		graphs[fmt.Sprintf("ring-%d", n)] = circulant(n, 1)
		graphs[fmt.Sprintf("ring4-%d", n)] = circulant(n, 2)
	}
	// Only even nodes have edges; every odd node is isolated.
	var even []graph.Edge
	for u := 0; u+2 < 30; u += 2 {
		even = append(even, graph.Edge{U: uint32(u), V: uint32(u + 2), W: 1})
		if u%6 == 0 && u+4 < 30 {
			even = append(even, graph.Edge{U: uint32(u), V: uint32(u + 4), W: 1})
		}
	}
	graphs["isolated-between"] = graph.Build(30, even, false)
	// Threshold graph: u~v iff u+v >= k, so node u has degree u or u-1
	// and sorted degrees step by one (one repeat in the middle).
	for _, k := range []int{13, 14, 21} {
		var edges []graph.Edge
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if u+v >= k {
					edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v), W: 1})
				}
			}
		}
		graphs[fmt.Sprintf("threshold-%d", k)] = graph.Build(k, edges, false)
	}
	for name, g := range graphs {
		for _, damping := range []float64{0.85, 0.5} {
			want, wantIters := referencePageRank(g, PageRankOptions{Damping: damping})
			for _, workers := range []int{1, 2, 3, 8} {
				for _, grain := range []int{1, 64} {
					for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
						opt := PageRankOptions{Damping: damping, Par: par.Options{Workers: workers, Grain: grain, Strategy: strat}}
						got, iters := PageRankIters(g, opt)
						if iters != wantIters {
							t.Fatalf("%s d=%v w=%d g=%d %s: %d iterations, reference %d", name, damping, workers, grain, strat, iters, wantIters)
						}
						for u := range want {
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

// circulant joins every node to the k nodes on either side of it on a
// ring of n, so every node has degree 2k.
func circulant(n, k int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32((u + j) % n), W: 1})
		}
	}
	return graph.Build(n, edges, false)
}

func TestDegreeOrder(t *testing.T) {
	// Degrees 2 0 1 2 0 3: ascending degree, node order within one.
	off := []int64{0, 2, 2, 3, 5, 5, 8}
	want := []uint32{1, 4, 2, 0, 3, 5}
	if got := degreeOrder(off); !reflect.DeepEqual(got, want) {
		t.Fatalf("degreeOrder = %v, want %v", got, want)
	}
}
