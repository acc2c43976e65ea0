// Package algo implements Stage 5 of the framework: the s-measures
// computed on the materialized s-line graph. Because an s-line graph is
// an ordinary graph, any standard graph algorithm applies; this package
// provides the ones used in the paper's applications and evaluation —
// s-connected components (both union-find and the label-propagation
// variant benchmarked in Table V), s-betweenness centrality (Brandes),
// s-distance (BFS), and PageRank (for Table II).
package algo

import (
	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// Components is a connected-component labeling of a graph: Label[u] is
// the component representative of node u (the minimum node ID in the
// component), and Count is the number of components (isolated nodes
// included).
type Components struct {
	Label []uint32
	Count int
}

// Members returns the component membership lists, sorted by ascending
// representative and, within a component, ascending node ID. The lists
// are cut from one backing array by a counting sort on the labels; each
// is capped at its own length, so an append to one never overwrites the
// next.
func (c *Components) Members() [][]uint32 {
	n := len(c.Label)
	// start[l] is where label l's members begin in nodes.
	start := make([]int, n+1)
	for _, l := range c.Label {
		start[l+1]++
	}
	for l := 1; l <= n; l++ {
		start[l] += start[l-1]
	}
	nodes := make([]uint32, n)
	out := make([][]uint32, 0, c.Count)
	for l := 0; l < n; l++ {
		if lo, hi := start[l], start[l+1]; lo < hi {
			out = append(out, nodes[lo:hi:hi])
		}
	}
	for u, l := range c.Label {
		nodes[start[l]] = uint32(u)
		start[l]++
	}
	return out
}

// ConnectedComponents labels components with a sequential union-find
// (path-halving + union by smaller root). This is the reference
// implementation; LabelPropagationCC is the parallel variant the paper
// benchmarks.
//
// Each undirected edge is united once, from its smaller end: a row's
// entries v ≤ u were united from v's row. A root is always the
// smallest node of its set, whatever the union order, so the labels
// are those of a union over both directions.
func ConnectedComponents(g *graph.Graph) *Components {
	n := g.NumNodes()
	off, adj, _, _ := g.CSR()
	parent := make([]uint32, n)
	for u := range parent {
		parent[u] = uint32(u)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		for _, v := range adj[off[u]:off[u+1]] {
			if v <= uint32(u) {
				continue
			}
			ru, rv := find(uint32(u)), find(v)
			if ru == rv {
				continue
			}
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
	}
	labels := make([]uint32, n)
	count := 0
	for u := 0; u < n; u++ {
		labels[u] = find(uint32(u))
		if labels[u] == uint32(u) {
			count++
		}
	}
	return &Components{Label: labels, Count: count}
}

// LabelPropagationCC labels components with synchronous parallel
// min-label propagation (LPCC), the algorithm benchmarked end-to-end in
// the paper's Table V: every node repeatedly adopts the minimum label
// in its closed neighborhood until a fixed point.
func LabelPropagationCC(g *graph.Graph, opt par.Options) *Components {
	n := g.NumNodes()
	labels := make([]uint32, n)
	next := make([]uint32, n)
	for u := range labels {
		labels[u] = uint32(u)
	}
	w := opt.EffectiveWorkers()
	for {
		changedPer := make([]bool, w)
		par.For(n, opt, func(worker, u int) {
			min := labels[u]
			ids, _ := g.Neighbors(uint32(u))
			for _, v := range ids {
				if labels[v] < min {
					min = labels[v]
				}
			}
			next[u] = min
			if min != labels[u] {
				changedPer[worker] = true
			}
		})
		labels, next = next, labels
		changed := false
		for _, c := range changedPer {
			changed = changed || c
		}
		if !changed {
			break
		}
	}
	// Min-labels converge to the minimum node ID of each component,
	// matching ConnectedComponents' representatives.
	count := 0
	for u := 0; u < n; u++ {
		if labels[u] == uint32(u) {
			count++
		}
	}
	return &Components{Label: labels, Count: count}
}
