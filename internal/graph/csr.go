package graph

import "fmt"

// The s-line graph is already stored as flat CSR arrays (see Build):
//
//	off  [numNodes+1]int64   row offsets into adj/wgt
//	adj  [2*numEdges]uint32  sorted neighbor IDs per row
//	wgt  [2*numEdges]uint32  parallel edge weights (overlap sizes)
//	orig [numNodes]uint32    pre-squeeze node IDs (absent if unsqueezed)
//
// hgio.WriteCSR persists exactly these arrays and hgio.ReadCSR reads
// them back; this file holds the raw-array accessors those codecs need.

// CSR exposes the graph's raw arrays. The slices alias internal storage
// and must not be modified. orig is nil when the graph was built
// without ID squeezing.
func (g *Graph) CSR() (off []int64, adj, wgt, orig []uint32) {
	g = g.Materialize()
	return g.off, g.adj, g.wgt, g.orig
}

// FromCSR constructs a graph directly from its flat arrays (which it
// aliases, not copies — the caller transfers ownership). numEdges is
// the undirected edge count, so len(adj) must be 2*numEdges. Only the
// O(1) frame invariants are checked; content validation (sorted rows,
// in-range IDs) is the producer's responsibility, as with hg.FromCSR.
func FromCSR(numNodes, numEdges int, off []int64, adj, wgt, orig []uint32) (*Graph, error) {
	if len(off) != numNodes+1 {
		return nil, fmt.Errorf("graph: offsets length %d, want %d", len(off), numNodes+1)
	}
	if len(adj) != 2*numEdges || len(wgt) != len(adj) {
		return nil, fmt.Errorf("graph: adjacency length %d / weights %d, want %d for %d undirected edges",
			len(adj), len(wgt), 2*numEdges, numEdges)
	}
	if off[0] != 0 || off[numNodes] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: offsets endpoints [%d,%d], want [0,%d]", off[0], off[numNodes], len(adj))
	}
	if orig != nil && len(orig) != numNodes {
		return nil, fmt.Errorf("graph: orig length %d, want %d", len(orig), numNodes)
	}
	return &Graph{numNodes: numNodes, numEdges: numEdges, off: off, adj: adj, wgt: wgt, orig: orig}, nil
}
