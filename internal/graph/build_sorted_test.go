package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hyperline/internal/par"
)

// randomSortedEdges generates a BuildSorted-contract edge list: unique
// (U, V) keys with U < V, sorted, over numNodes IDs.
func randomSortedEdges(rng *rand.Rand, numNodes, want int) []Edge {
	seen := map[[2]uint32]bool{}
	edges := make([]Edge, 0, want)
	for len(edges) < want {
		u := uint32(rng.Intn(numNodes))
		v := uint32(rng.Intn(numNodes))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]uint32{u, v}] {
			continue
		}
		seen[[2]uint32{u, v}] = true
		edges = append(edges, Edge{U: u, V: v, W: uint32(rng.Intn(50) + 1)})
	}
	sortByUV(edges)
	return edges
}

func sortByUV(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Squeezed() != b.Squeezed() {
		t.Fatalf("shape mismatch: (%d,%d,%v) vs (%d,%d,%v)",
			a.NumNodes(), a.NumEdges(), a.Squeezed(), b.NumNodes(), b.NumEdges(), b.Squeezed())
	}
	for u := 0; u < a.NumNodes(); u++ {
		if a.OrigID(uint32(u)) != b.OrigID(uint32(u)) {
			t.Fatalf("node %d: orig ID %d vs %d", u, a.OrigID(uint32(u)), b.OrigID(uint32(u)))
		}
		aIDs, aWs := a.Neighbors(uint32(u))
		bIDs, bWs := b.Neighbors(uint32(u))
		if !reflect.DeepEqual(aIDs, bIDs) || !reflect.DeepEqual(aWs, bWs) {
			t.Fatalf("node %d: adjacency mismatch\n%v %v\n%v %v", u, aIDs, aWs, bIDs, bWs)
		}
	}
}

func TestBuildSortedMatchesBuild(t *testing.T) {
	// Give the Workers > 1 cases real scheduler parallelism even on
	// single-CPU test machines, so -race sees the chunks overlap.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		numNodes := 2 + rng.Intn(200)
		maxEdges := numNodes * (numNodes - 1) / 2
		count := rng.Intn(maxEdges/2 + 1)
		edges := randomSortedEdges(rng, numNodes, count)
		for _, squeeze := range []bool{false, true} {
			safe := Build(numNodes, edges, squeeze)
			for _, workers := range []int{1, 4} {
				fast := BuildSorted(numNodes, edges, squeeze, par.Options{Workers: workers})
				graphsEqual(t, safe, fast)
			}
			// Graphs this small derive at most two chunks.
			for _, chunks := range []int{3, 7} {
				graphsEqual(t, safe, buildChunked(numNodes, edges, squeeze, chunks))
			}
		}
	}
}

// TestBuildChunkedMatchesBuild forces chunk counts BuildSorted would
// not derive for inputs this small, on shapes that stress the per-chunk
// cursors: rows straddling chunk boundaries, a hub present in every
// chunk, chunks left empty, nodes no edge touches.
func TestBuildChunkedMatchesBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(7))
	// hub: node 5 of 40 is adjacent to every other node, so it takes
	// backward and forward neighbors from every chunk; the odd nodes
	// above 20 only ever meet the hub.
	var hub []Edge
	for x := uint32(0); x < 40; x++ {
		if x != 5 {
			hub = append(hub, Edge{U: min(x, 5), V: max(x, 5), W: x + 1})
		}
		if x%2 == 0 && x+2 < 20 {
			hub = append(hub, Edge{U: x, V: x + 2, W: 3})
		}
	}
	sortByUV(hub)
	inputs := []struct {
		name     string
		numNodes int
		edges    []Edge
	}{
		{"empty", 6, nil},
		{"single", 6, []Edge{{U: 1, V: 4, W: 2}}},
		{"hub", 40, hub},
		{"hub-sparse-ids", 4000, hub},
		{"dense", 30, randomSortedEdges(rng, 30, 300)},
		{"sparse", 500, randomSortedEdges(rng, 500, 60)},
	}
	for _, in := range inputs {
		for _, squeeze := range []bool{false, true} {
			safe := Build(in.numNodes, in.edges, squeeze)
			for _, chunks := range []int{1, 2, 3, 7, len(in.edges), len(in.edges) + 3} {
				t.Run(fmt.Sprintf("%s/squeeze=%v/chunks=%d", in.name, squeeze, chunks), func(t *testing.T) {
					graphsEqual(t, safe, buildChunked(in.numNodes, in.edges, squeeze, chunks))
				})
			}
		}
	}
}

func TestChunkCount(t *testing.T) {
	for _, c := range []struct{ numNodes, numEdges, workers, want int }{
		{5400, 390000, 2, 2},           // dense: the workers decide
		{5400, 390000, 1, 1},           // one worker, one chunk
		{100, 3 * minChunkEdges, 8, 3}, // every chunk gets minChunkEdges
		{100, 200, 8, 0},               // tiny list: one chunk (buildChunked clamps)
		{1 << 20, 1 << 20, 8, 2},       // sparse: the cursor table is bounded by the output
		{1 << 20, 1 << 18, 8, 0},
		{0, 0, 4, 0},
	} {
		if got := chunkCount(c.numNodes, c.numEdges, c.workers); got != c.want {
			t.Errorf("chunkCount(%d nodes, %d edges, %d workers) = %d, want %d",
				c.numNodes, c.numEdges, c.workers, got, c.want)
		}
	}
}

func TestBuildSortedEmpty(t *testing.T) {
	for _, squeeze := range []bool{false, true} {
		g := BuildSorted(0, nil, squeeze, par.Options{})
		if g.NumNodes() != 0 || g.NumEdges() != 0 {
			t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
		}
		g = BuildSorted(5, nil, squeeze, par.Options{})
		want := 5
		if squeeze {
			want = 0
		}
		if g.NumNodes() != want {
			t.Fatalf("squeeze=%v: %d nodes, want %d", squeeze, g.NumNodes(), want)
		}
	}
}

func TestBuildSortedDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := randomSortedEdges(rng, 64, 100)
	before := slices.Clone(edges)
	BuildSorted(64, edges, true, par.Options{Workers: 4})
	if !slices.Equal(edges, before) {
		t.Fatal("BuildSorted modified its input slice")
	}
}

// TestBuildCoalesceOrderIndependent is the regression test for the
// sorted-check/sort comparator mismatch: a duplicate (U, V) group must
// coalesce to its maximum weight whether the input arrives sorted (the
// sorted-check accepts it without tie-breaking on W) or shuffled (the
// fallback sort runs). Before the fix the fallback sort ordered
// duplicates by W descending while sorted input kept arrival order, so
// the two paths could only agree because coalescing takes the max —
// which this test pins down.
func TestBuildCoalesceOrderIndependent(t *testing.T) {
	sorted := []Edge{
		{U: 0, V: 1, W: 2}, {U: 0, V: 1, W: 7}, {U: 0, V: 1, W: 4},
		{U: 1, V: 2, W: 9}, {U: 1, V: 2, W: 1},
	}
	shuffled := []Edge{
		{U: 1, V: 2, W: 1}, {U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 9},
		{U: 0, V: 1, W: 7}, {U: 0, V: 1, W: 2},
	}
	reversed := []Edge{ // also exercise V > U normalization
		{U: 2, V: 1, W: 1}, {U: 1, V: 0, W: 4}, {U: 1, V: 2, W: 9},
		{U: 0, V: 1, W: 7}, {U: 1, V: 0, W: 2},
	}
	a := Build(3, sorted, false)
	b := Build(3, shuffled, false)
	c := Build(3, reversed, false)
	graphsEqual(t, a, b)
	graphsEqual(t, a, c)
	if w := a.Weight(0, 1); w != 7 {
		t.Fatalf("edge {0,1} weight = %d, want max 7", w)
	}
	if w := a.Weight(1, 2); w != 9 {
		t.Fatalf("edge {1,2} weight = %d, want max 9", w)
	}
}
