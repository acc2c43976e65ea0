package graph

import "hyperline/internal/par"

// BuildSorted is the zero-copy fast path of Build for callers that
// guarantee the s-overlap stage's output invariants:
//
//   - every edge has U < V (no self-loops),
//   - edges are sorted by (U, V),
//   - (U, V) keys are unique (no duplicates to coalesce),
//   - all IDs are < numNodes.
//
// Under that contract list order is sorted-row order: row x receives
// its backward neighbors first — edges (u, x) precede edges (x, v) in
// the input because u < x — in ascending u, then its forward neighbors
// in ascending v, and u < x < v splices the two runs in order. A stable
// scatter therefore needs no atomics and no per-row sort. The list is
// split into contiguous chunks; each chunk counts a private per-node
// histogram, one prefix pass over (node, chunk) turns the histograms
// into per-chunk row cursors, and each chunk scatters sequentially
// through its own cursors. The squeeze remap preserves the order (new
// IDs are monotone in the old ones).
//
// The chunk count is derived from opt's effective workers and the input
// shape (see chunkCount); the output does not depend on it. The input
// slice is read but never modified, and the result is identical to
// Build(numNodes, edges, squeeze).
//
// Callers that cannot vouch for the invariants must use Build, which
// keeps the defensive path.
func BuildSorted(numNodes int, edges []Edge, squeeze bool, opt par.Options) *Graph {
	return buildChunked(numNodes, edges, squeeze, chunkCount(numNodes, len(edges), opt.EffectiveWorkers()))
}

// minChunkEdges is the fewest edges worth a goroutine of their own.
const minChunkEdges = 1 << 12

// chunkCount is at most the workers, at most what gives every chunk
// minChunkEdges edges, and at most what keeps the chunks × numNodes
// cursor table (8 bytes a cell) no larger than the adjacency and weight
// arrays (16 bytes an edge), so the prefix pass over the table stays
// below the scatter it serves and sparse or tiny lists run as one
// chunk.
func chunkCount(numNodes, numEdges, workers int) int {
	return min(workers, numEdges/minChunkEdges, 2*numEdges/max(numNodes, 1))
}

// buildChunked is the one CSR build behind BuildSorted and Build; see
// BuildSorted for the contract. chunks < 1 is taken as 1, and chunks
// may exceed len(edges) (the surplus chunks are empty).
func buildChunked(numNodes int, edges []Edge, squeeze bool, chunks int) *Graph {
	chunks = max(chunks, 1)
	g := &Graph{numNodes: numNodes, numEdges: len(edges)}

	// cur[c*numNodes+x] first counts node x's endpoints in chunk c, then
	// holds chunk c's write position in row x. Chunk c always owns the
	// same edges, so the count and the scatter agree.
	cur := make([]int64, chunks*numNodes)
	forChunks := func(fn func(cur []int64, part []Edge)) {
		par.For(chunks, par.Options{Workers: chunks, Grain: 1}, func(_, c int) {
			lo, hi := c*len(edges)/chunks, (c+1)*len(edges)/chunks
			fn(cur[c*numNodes:(c+1)*numNodes], edges[lo:hi])
		})
	}
	forChunks(func(cur []int64, part []Edge) {
		for _, e := range part {
			cur[e.U]++
			cur[e.V]++
		}
	})

	// Squeeze keeps the nodes some chunk saw; size the kept arrays
	// exactly, numNodes can dwarf the survivors.
	var newID []uint32
	if squeeze {
		g.numNodes = 0
		for x := 0; x < numNodes; x++ {
			for i := x; i < len(cur); i += numNodes {
				if cur[i] > 0 {
					g.numNodes++
					break
				}
			}
		}
		newID = make([]uint32, numNodes)
		g.orig = make([]uint32, g.numNodes)
	}

	// The prefix pass: rows in node order, chunks in list order within a
	// row.
	g.off = make([]int64, g.numNodes+1)
	var pos int64
	node := 0
	for x := 0; x < numNodes; x++ {
		start := pos
		for i := x; i < len(cur); i += numNodes {
			cur[i], pos = pos, pos+cur[i]
		}
		if squeeze {
			if pos == start {
				continue
			}
			newID[x], g.orig[node] = uint32(node), uint32(x)
		}
		g.off[node] = start
		node++
	}
	g.off[g.numNodes] = pos

	g.adj = make([]uint32, 2*len(edges))
	g.wgt = make([]uint32, 2*len(edges))
	forChunks(func(cur []int64, part []Edge) {
		for _, e := range part {
			u, v := e.U, e.V
			if squeeze {
				u, v = newID[u], newID[v]
			}
			pu, pv := cur[e.U], cur[e.V]
			cur[e.U], cur[e.V] = pu+1, pv+1
			g.adj[pu], g.wgt[pu] = v, e.W
			g.adj[pv], g.wgt[pv] = u, e.W
		}
	})
	return g
}
