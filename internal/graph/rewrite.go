package graph

// Gone marks a node that Rewrite drops.
const Gone = ^uint32(0)

// Rewrite builds the next version of g by editing its rows, without an
// edge list, a sort or a scatter:
//
//   - node x of g becomes node remap[x], or is dropped with every edge
//     at it when remap[x] is Gone. The kept nodes must keep their order
//     (remap strictly increasing over them), so remapped rows stay
//     sorted;
//   - drop lists directed pairs of g to remove (node IDs of g, both
//     directions of each edge, sorted by (U, V));
//   - add lists directed pairs to insert (new node IDs, both directions,
//     sorted by (U, V)), none of them already an edge after the drops.
//
// The result has numNodes nodes; new nodes that are no node of g get
// only added edges, and every node must end up with at least one edge,
// as under squeezing. orig is the result's squeeze mapping (nil for an
// unsqueezed graph). g is not modified and shares no storage with the
// result.
func Rewrite(g *Graph, remap []uint32, numNodes int, drop, add []Edge, orig []uint32) (*Graph, error) {
	off := make([]int64, numNodes+1)
	adj := make([]uint32, 0, len(g.adj)+len(add))
	wgt := make([]uint32, 0, len(g.adj)+len(add))
	x := 0 // next node of g
	di, ai := 0, 0
	for k := uint32(0); int(k) < numNodes; k++ {
		for x < g.numNodes && remap[x] == Gone {
			x++
		}
		if x < g.numNodes && remap[x] == k {
			ids, ws := g.Neighbors(uint32(x))
			for di < len(drop) && drop[di].U < uint32(x) {
				di++
			}
			if (di == len(drop) || drop[di].U != uint32(x)) && (ai == len(add) || add[ai].U != k) {
				// The common row: remapped, minus gone neighbours. Every
				// neighbour is written; only kept ones advance w.
				start, w := len(adj), len(adj)
				adj, wgt = adj[:start+len(ids)], wgt[:start+len(ids)]
				for j, y := range ids {
					ny := remap[y]
					adj[w], wgt[w] = ny, ws[j]
					if ny != Gone {
						w++
					}
				}
				adj, wgt = adj[:w], wgt[:w]
				off[k+1] = int64(w)
				x++
				continue
			}
			for j, y := range ids {
				ny := remap[y]
				if ny == Gone {
					continue
				}
				for di < len(drop) && EdgeLess(drop[di], Edge{U: uint32(x), V: y}) {
					di++
				}
				if di < len(drop) && drop[di].U == uint32(x) && drop[di].V == y {
					di++
					continue
				}
				for ; ai < len(add) && add[ai].U == k && add[ai].V < ny; ai++ {
					adj, wgt = append(adj, add[ai].V), append(wgt, add[ai].W)
				}
				adj, wgt = append(adj, ny), append(wgt, ws[j])
			}
			x++
		}
		for ; ai < len(add) && add[ai].U == k; ai++ {
			adj, wgt = append(adj, add[ai].V), append(wgt, add[ai].W)
		}
		off[k+1] = int64(len(adj))
	}
	return FromCSR(numNodes, len(adj)/2, off, adj, wgt, orig)
}
