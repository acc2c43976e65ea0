// Package graph provides the weighted undirected graph substrate that
// s-line graphs are materialized into (Stage 4 of the framework),
// including the ID-squeezing step that remaps the hypersparse hyperedge
// ID space to a contiguous node ID space.
package graph

import (
	"cmp"
	"sort"
	"sync"
)

// EdgeLess is the canonical (U, V) edge order used by Build's
// sorted-check and fallback sort and by the s-overlap stage's worker
// lists. W is deliberately not a tie-break: coalescing takes the
// maximum weight of a duplicate group, so the result is identical
// whether duplicates arrive sorted or not.
func EdgeLess(a, b Edge) bool { return EdgeCmp(a, b) < 0 }

// EdgeCmp is EdgeLess as a three-way comparison, for the slices
// package.
func EdgeCmp(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// Edge is one weighted undirected edge (U < V) produced by the
// s-overlap stage; W is the overlap weight.
type Edge struct {
	U, V uint32
	W    uint32
}

// Graph is an immutable weighted undirected graph in CSR form. A graph
// made by Defer holds a pending Rewrite instead of rows: its node and
// edge counts, degrees and squeeze mapping answer at once, and the first
// row read (Neighbors, CSR, Edges, Weight) runs the rewrite
// (see deferred).
type Graph struct {
	numNodes int
	numEdges int // undirected edge count
	off      []int64
	adj      []uint32
	wgt      []uint32
	// orig[node] = ID in the pre-squeeze space; nil when the graph
	// was built without squeezing (IDs are the identity).
	orig []uint32
	// lazy is set on a graph made by Defer, whose off/adj/wgt stay nil.
	lazy *deferred
	// cc is the labelling Components builds once, under ccOnce.
	ccOnce sync.Once
	cc     *Components
}

// Build materializes a graph from an s-line edge list over a node ID
// space of size numNodes. When squeeze is true, only nodes incident to
// at least one edge receive (contiguous) node IDs — the paper's Stage-4
// "ID squeezing" — and the mapping back to original IDs is retained.
// Duplicate edges are coalesced (keeping the maximum weight) and
// self-loops are ignored. The input slice is not modified.
func Build(numNodes int, edges []Edge, squeeze bool) *Graph {
	// Normalize to U < V and drop self-loops.
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm = append(norm, e)
	}
	// The s-overlap stage emits edges already sorted by (U, V); only
	// pay for a sort when the caller hands us something else.
	sorted := sort.SliceIsSorted(norm, func(i, j int) bool {
		return EdgeLess(norm[i], norm[j])
	})
	if !sorted {
		sort.Slice(norm, func(i, j int) bool {
			return EdgeLess(norm[i], norm[j])
		})
	}
	// Coalesce duplicates in place (max weight wins).
	undirected := norm[:0]
	for _, e := range norm {
		if n := len(undirected); n > 0 && undirected[n-1].U == e.U && undirected[n-1].V == e.V {
			if e.W > undirected[n-1].W {
				undirected[n-1].W = e.W
			}
			continue
		}
		undirected = append(undirected, e)
	}

	// What is left meets BuildSorted's contract.
	return buildChunked(numNodes, undirected, squeeze, 1)
}

// NumNodes returns the number of nodes (post-squeeze if squeezed).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Squeezed reports whether ID squeezing was applied.
func (g *Graph) Squeezed() bool { return g.orig != nil }

// OrigID maps a node back to its pre-squeeze ID (identity when the
// graph was not squeezed). For an s-line graph that is the working
// hyperedge ID, which under relabel N with squeezing is the input's
// hyperedge ID, empty input rows or not.
func (g *Graph) OrigID(node uint32) uint32 {
	if g.orig == nil {
		return node
	}
	return g.orig[node]
}

// Neighbors returns the sorted neighbor IDs of u and, in parallel
// position, the edge weights. The slices alias internal storage.
func (g *Graph) Neighbors(u uint32) ([]uint32, []uint32) {
	if g.lazy != nil {
		g = g.lazy.rows(g)
	}
	lo, hi := g.off[u], g.off[u+1]
	return g.adj[lo:hi], g.wgt[lo:hi]
}

// Degree returns the number of neighbors of u. It reads no rows.
func (g *Graph) Degree(u uint32) int {
	if g.lazy != nil {
		return int(g.lazy.deg[u])
	}
	return int(g.off[u+1] - g.off[u])
}

// Weight returns the weight of edge {u, v}, or 0 if absent.
func (g *Graph) Weight(u, v uint32) uint32 {
	ids, ws := g.Neighbors(u)
	for i, id := range ids {
		if id == v {
			return ws[i]
		}
	}
	return 0
}

// Edges returns the undirected edge list sorted by (U, V) with U < V.
func (g *Graph) Edges() []Edge {
	g = g.Materialize()
	out := make([]Edge, 0, g.numEdges)
	for u := 0; u < g.numNodes; u++ {
		ids, ws := g.Neighbors(uint32(u))
		for i, v := range ids {
			if uint32(u) < v {
				out = append(out, Edge{U: uint32(u), V: v, W: ws[i]})
			}
		}
	}
	return out
}
