package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hyperline/internal/algo"
	"hyperline/internal/graph"
)

// referenceLargestComponent is the construction LargestComponent
// replaced: sizes in a map, the component's edges filtered out of
// g.Edges() and rebuilt (squeezed) through graph.Build.
func referenceLargestComponent(g *graph.Graph) *graph.Graph {
	cc := algo.ConnectedComponents(g)
	sizes := map[uint32]int{}
	for _, l := range cc.Label {
		sizes[l]++
	}
	best := uint32(0)
	bestSize := -1
	for l, n := range sizes {
		if n > bestSize || (n == bestSize && l < best) {
			best, bestSize = l, n
		}
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if cc.Label[e.U] == best {
			edges = append(edges, e)
		}
	}
	if len(edges) == 0 {
		return graph.Build(0, nil, false)
	}
	return graph.Build(g.NumNodes(), edges, true)
}

// referenceLambda2 is the power iteration normalizedLambda2Connected
// replaced: the mat-vec multiplies invSqrtDeg[v]·x[v] per edge. The
// float64 conversion keeps the product from fusing into the sum, which
// is what storing it in z does.
func referenceLambda2(g *graph.Graph, opt Options) (float64, int) {
	opt = opt.defaults()
	n := g.NumNodes()
	if n < 2 {
		return 0, 0
	}
	phi := make([]float64, n)
	var norm float64
	for u := 0; u < n; u++ {
		d := float64(g.Degree(uint32(u)))
		phi[u] = math.Sqrt(d)
		norm += d
	}
	norm = math.Sqrt(norm)
	for u := range phi {
		phi[u] /= norm
	}
	x := make([]float64, n)
	for u := range x {
		x[u] = math.Sin(float64(u+1)) + 0.5
	}
	deflate(x, phi)
	normalize(x)
	y := make([]float64, n)
	invSqrtDeg := make([]float64, n)
	for u := 0; u < n; u++ {
		invSqrtDeg[u] = 1 / math.Sqrt(float64(g.Degree(uint32(u))))
	}
	var mu float64
	iters := 0
	for iters < opt.MaxIter {
		iters++
		for u := 0; u < n; u++ {
			sum := 0.0
			ids, _ := g.Neighbors(uint32(u))
			for _, v := range ids {
				sum += float64(invSqrtDeg[v] * x[v])
			}
			y[u] = x[u] + invSqrtDeg[u]*sum
		}
		deflate(y, phi)
		newMu := dot(x, y)
		if normalize(y) == 0 {
			return 2, iters
		}
		x, y = y, x
		if iters > 1 && math.Abs(newMu-mu) < opt.Tol {
			mu = newMu
			break
		}
		mu = newMu
	}
	lambda2 := 2 - mu
	if lambda2 < 0 {
		lambda2 = 0
	}
	return lambda2, iters
}

func referenceGraphs() map[string]*graph.Graph {
	graphs := map[string]*graph.Graph{
		"empty":       graph.Build(0, nil, false),
		"edgeless":    graph.Build(5, nil, false),
		"single-edge": graph.Build(2, []graph.Edge{{U: 0, V: 1, W: 3}}, false),
		"path":        pathGraph(17),
		"cycle":       cycleGraph(12),
		"complete":    completeGraph(7),
		// Two components of equal size: the one holding the smallest
		// node wins.
		"tie": graph.Build(8, []graph.Edge{
			{U: 4, V: 5, W: 2}, {U: 5, V: 6, W: 9}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 1},
		}, false),
		// Squeezed input: orig must name g's nodes, not g's own orig.
		"squeezed": graph.Build(40, []graph.Edge{
			{U: 30, V: 31, W: 1}, {U: 3, V: 9, W: 5}, {U: 9, V: 20, W: 6}, {U: 3, V: 20, W: 7}, {U: 20, V: 25, W: 8},
		}, true),
	}
	r := rand.New(rand.NewSource(15))
	for k := 0; k < 20; k++ {
		n := 2 + r.Intn(120)
		var edges []graph.Edge
		for e := r.Intn(3 * n); e > 0; e-- {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: uint32(1 + r.Intn(9))})
			}
		}
		graphs[fmt.Sprintf("random-%d", k)] = graph.Build(n, edges, k%2 == 0)
	}
	return graphs
}

func TestLargestComponentMatchesReference(t *testing.T) {
	for name, g := range referenceGraphs() {
		got, want := LargestComponent(g), referenceLargestComponent(g)
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: %d nodes %d edges, reference %d nodes %d edges",
				name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		gOff, gAdj, gWgt, gOrig := got.CSR()
		wOff, wAdj, wWgt, wOrig := want.CSR()
		if !slices.Equal(gOff, wOff) || !slices.Equal(gAdj, wAdj) || !slices.Equal(gWgt, wWgt) || !slices.Equal(gOrig, wOrig) {
			t.Fatalf("%s: CSR\n%v %v %v %v, reference\n%v %v %v %v", name, gOff, gAdj, gWgt, gOrig, wOff, wAdj, wWgt, wOrig)
		}
	}
}

func TestLambda2BitIdenticalToReference(t *testing.T) {
	for name, g := range referenceGraphs() {
		sub := LargestComponent(g)
		got, iters := normalizedLambda2Connected(sub, Options{})
		want, wantIters := referenceLambda2(sub, Options{})
		if iters != wantIters {
			t.Fatalf("%s: %d iterations, reference %d", name, iters, wantIters)
		}
		if math.IsNaN(got) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: λ₂ = %x (%v), reference %x (%v)", name, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
}
