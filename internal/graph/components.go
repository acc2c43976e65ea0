package graph

// Components is a graph's connected-component labelling, an index of
// the graph built once by Graph.Components. Its slices must not be
// modified.
type Components struct {
	// Label[u] is the smallest node of u's component.
	Label []uint32
	// Nodes lists every node component-major: the components in the
	// order of their smallest node, each one's nodes ascending.
	// Component j is Nodes[Bounds[j]:Bounds[j+1]].
	Nodes  []uint32
	Bounds []uint32
}

// Count returns the number of components, isolated nodes included.
func (c *Components) Count() int { return len(c.Bounds) - 1 }

// Members returns component j's nodes, capped at their own length, so
// an append to one never writes into the next.
func (c *Components) Members(j int) []uint32 { return c.Nodes[c.Bounds[j]:c.Bounds[j+1]:c.Bounds[j+1]] }

// Components returns g's connected-component labelling. It is built on
// first use, once per graph, and shared by every reader: 4 B per node
// for Label and 4 for Nodes, and 4 B per component for Bounds. A graph
// made by Defer shares the labelling of the graph it builds; Rewrite
// and Defer make new graphs, which label afresh.
func (g *Graph) Components() *Components {
	g = g.Materialize()
	g.ccOnce.Do(func() { g.cc = FromLabels(label(g)) })
	return g.cc
}

// label runs a breadth-first search from each unreached node in node
// order, so each search starts at its component's smallest node, and
// returns that node for every node.
func label(g *Graph) []uint32 {
	// lab[u] is u's label + 1, 0 while u is not reached.
	lab := make([]uint32, g.numNodes)
	var queue []uint32
	for s := range lab {
		if lab[s] != 0 {
			continue
		}
		lab[s] = uint32(s) + 1
		queue = append(queue[:0], uint32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.adj[g.off[u]:g.off[u+1]] {
				if lab[v] == 0 {
					lab[v] = uint32(s) + 1
					queue = append(queue, v)
				}
			}
		}
	}
	for u := range lab {
		lab[u]--
	}
	return lab
}

// FromLabels lists the nodes of a labelling whose labels are their
// components' smallest nodes component-major, by a counting sort on the
// labels in node order. The result's Label is label, which it keeps.
func FromLabels(label []uint32) *Components {
	n := len(label)
	// start[l] is where label l's members begin in Nodes.
	start := make([]uint32, n+1)
	count := 0
	for u, l := range label {
		start[l+1]++
		if l == uint32(u) {
			count++
		}
	}
	bounds := make([]uint32, 1, count+1)
	for l := 1; l <= n; l++ {
		if start[l] > 0 {
			bounds = append(bounds, bounds[len(bounds)-1]+start[l])
		}
		start[l] += start[l-1]
	}
	nodes := make([]uint32, n)
	for u, l := range label {
		nodes[start[l]] = uint32(u)
		start[l]++
	}
	return &Components{Label: label, Nodes: nodes, Bounds: bounds}
}
