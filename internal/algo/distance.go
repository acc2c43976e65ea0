package algo

import (
	"hyperline/internal/graph"
)

// Unreachable is the distance reported for node pairs with no
// connecting path.
const Unreachable = int32(-1)

// BFSDistances returns the hop distance from src to every node
// (Unreachable where no path exists). On an s-line graph this is the
// s-distance between hyperedges: the length of the shortest s-walk.
func BFSDistances(g *graph.Graph, src uint32) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]uint32, 0, n)
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		ids, _ := g.Neighbors(u)
		for _, v := range ids {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
