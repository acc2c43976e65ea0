// Package algo implements Stage 5 of the framework: the s-measures
// computed on the materialized s-line graph. Because an s-line graph is
// an ordinary graph, any standard graph algorithm applies; this package
// provides the ones used in the paper's applications and evaluation —
// s-connected components (both breadth-first and the label-propagation
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
	// held is the graph's own labelling when Label aliases it.
	held *graph.Components
}

// Members returns the component membership lists, sorted by ascending
// representative and, within a component, ascending node ID; each is
// capped at its own length, so an append to one never overwrites the
// next. A labelling from ConnectedComponents is cut from the graph's
// node list; any other is grouped by graph.FromLabels.
func (c *Components) Members() [][]uint32 {
	held := c.held
	if held == nil {
		held = graph.FromLabels(c.Label)
	}
	out := make([][]uint32, held.Count())
	for j := range out {
		out[j] = held.Members(j)
	}
	return out
}

// ConnectedComponents returns the graph's own labelling
// (graph.Graph.Components): a breadth-first search from each unreached
// node in node order, run once per graph. Label aliases it and must not
// be modified. This is the reference implementation;
// LabelPropagationCC is the parallel variant the paper benchmarks.
func ConnectedComponents(g *graph.Graph) *Components {
	cc := g.Components()
	return &Components{Label: cc.Label, Count: cc.Count(), held: cc}
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
