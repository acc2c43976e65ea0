package spectral

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyperline/internal/algo"
	"hyperline/internal/graph"
	"hyperline/internal/par"
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

// sortedLargestComponent is the construction LargestComponent
// replaced: the component's edges filtered out of g's CSR rows and
// rebuilt through graph.BuildSorted over all of g's nodes, squeezed.
func sortedLargestComponent(g *graph.Graph) *graph.Graph {
	cc := algo.ConnectedComponents(g)
	sizes := make([]int32, g.NumNodes())
	for _, l := range cc.Label {
		sizes[l]++
	}
	best := 0
	for l, n := range sizes {
		if n > sizes[best] {
			best = l
		}
	}
	if len(sizes) == 0 || sizes[best] < 2 {
		return graph.Build(0, nil, false)
	}
	off, adj, wgt, _ := g.CSR()
	edges := make([]graph.Edge, 0, g.NumEdges())
	for u, l := range cc.Label {
		if l != uint32(best) {
			continue
		}
		for k := off[u]; k < off[u+1]; k++ {
			if v := adj[k]; uint32(u) < v {
				edges = append(edges, graph.Edge{U: uint32(u), V: v, W: wgt[k]})
			}
		}
	}
	return graph.BuildSorted(g.NumNodes(), edges, true, par.Options{Workers: 1})
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
		checkSameGraph(t, name, LargestComponent(g), referenceLargestComponent(g))
	}
}

// TestLargestComponentMatchesSortedBuild pins the component-local build
// to the BuildSorted one it replaced, array for array, on the reference
// graphs and on the measure-bundle input's five projections.
func TestLargestComponentMatchesSortedBuild(t *testing.T) {
	graphs := referenceGraphs()
	for _, c := range loadBundle(t) {
		graphs[fmt.Sprintf("bundle s=%d", c.s)] = c.proj
	}
	for name, g := range graphs {
		got, want := LargestComponent(g), sortedLargestComponent(g)
		checkSameGraph(t, name, got, want)
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("%s: Edges() differ", name)
		}
	}
}

// checkSameGraph fails unless got and want have the same node and edge
// counts and the same CSR arrays.
func checkSameGraph(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
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
