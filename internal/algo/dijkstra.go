package algo

import (
	"container/heap"
	"math"

	"hyperline/internal/graph"
)

// WeightedDistances computes single-source shortest-path distances
// where traversing an s-line edge with overlap w costs cost(w).
// Passing nil uses the inverse-overlap cost 1/w, under which strongly
// overlapping hyperedges are "close" — a weighted refinement of the
// hop-count s-distance (hop counts are recovered with
// cost = func(uint32) float64 { return 1 }). Unreachable nodes get
// +Inf.
func WeightedDistances(g *graph.Graph, src uint32, cost func(w uint32) float64) []float64 {
	if cost == nil {
		cost = func(w uint32) float64 { return 1 / float64(w) }
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{items: []distItem{{node: src, dist: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		ids, ws := g.Neighbors(it.node)
		for k, v := range ids {
			c := cost(ws[k])
			if c < 0 {
				panic("algo: negative edge cost")
			}
			if nd := it.dist + c; nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, distItem{node: v, dist: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	node uint32
	dist float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x any)         { h.items = append(h.items, x.(distItem)) }
func (h *distHeap) Pop() (popped any) {
	popped = h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return popped
}
