package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hyperline/internal/algo"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
)

// directOracle computes s-CC labels via the materializing pipeline.
func directOracle(h interface {
	NumEdges() int
}, s int, edges []Edge) []uint32 {
	g := graph.Build(h.NumEdges(), edges, false)
	cc := algo.ConnectedComponents(g)
	return cc.Label
}

func TestDirectCCExample(t *testing.T) {
	h := paperExample()
	// s=3: hyperedges {0,1,2} connected through 2; 3 singleton.
	label := SConnectedComponentsDirect(h, 3)
	if label[0] != 0 || label[1] != 0 || label[2] != 0 || label[3] != 3 {
		t.Fatalf("labels = %v", label)
	}
	// s=1: all connected.
	label1 := SConnectedComponentsDirect(h, 1)
	for e, l := range label1 {
		if l != 0 {
			t.Fatalf("s=1 label[%d] = %d, want 0", e, l)
		}
	}
}

// TestDirectCCMatchesPipeline: the direct traversal must produce the
// same partition as materialize-then-CC, restricted to hyperedges of
// size >= s (smaller ones are singletons in both).
func TestDirectCCMatchesPipeline(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 25, 35, 7)
		s := 1 + int(sRaw%4)
		direct := SConnectedComponentsDirect(h, s)
		edges, _, _ := SLineEdges(context.Background(), h, s, Config{})
		want := directOracle(h, s, edges)
		for e := 0; e < h.NumEdges(); e++ {
			if direct[e] != want[e] {
				t.Logf("s=%d edge %d: direct %d, pipeline %d", s, e, direct[e], want[e])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectCCSmallEdgesSingleton(t *testing.T) {
	h := paperExample()
	// s=4: only hyperedge 2 (size 5) qualifies; everything is a
	// singleton.
	label := SConnectedComponentsDirect(h, 4)
	for e, l := range label {
		if l != uint32(e) {
			t.Fatalf("label[%d] = %d, want singleton", e, l)
		}
	}
}

// SConnectedComponentsDirect computes the s-connected components of
// the hyperedges of h without materializing the s-line graph: a BFS
// over hyperedges where the s-incident neighbors of the frontier edge
// are discovered on the fly with Algorithm 2's overlap counting.
//
// Compared to the pipeline (materialize Ls, then run CC), this trades
// repeated counting work for O(|E|) memory — the right choice when the
// s-line graph is too dense to store but only component structure is
// needed (the paper's clique-expansion OOMs of Table V are exactly
// this regime at s=1). Hyperedges of size < s form singleton
// components.
//
// The returned slice maps each hyperedge to its component
// representative: the minimum hyperedge ID in the component.
func SConnectedComponentsDirect(h *hg.Hypergraph, s int) []uint32 {
	if s < 1 {
		s = 1
	}
	m := h.NumEdges()
	label := make([]uint32, m)
	for e := range label {
		label[e] = uint32(e)
	}
	visited := make([]bool, m)
	counts := make([]uint32, m)
	var touched []uint32
	var queue []uint32

	for start := 0; start < m; start++ {
		if visited[start] || h.EdgeSize(uint32(start)) < s {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], uint32(start))
		rep := uint32(start) // minimum ID in BFS order is the start
		for head := 0; head < len(queue); head++ {
			ei := queue[head]
			label[ei] = rep
			// Discover s-incident neighbors of ei (both directions:
			// unlike the construction algorithms, traversal needs
			// every neighbor, not just ej > ei).
			touched = touched[:0]
			for _, vk := range h.EdgeVertices(ei) {
				for _, ej := range h.VertexEdges(vk) {
					if ej == ei || visited[ej] {
						continue
					}
					if counts[ej] == 0 {
						touched = append(touched, ej)
					}
					counts[ej]++
				}
			}
			for _, ej := range touched {
				if int(counts[ej]) >= s && !visited[ej] {
					visited[ej] = true
					queue = append(queue, ej)
				}
				counts[ej] = 0
			}
		}
	}
	return label
}
