// Package toplex implements Stage 2 of the framework: computing the
// toplexes (maximal hyperedges) of a hypergraph and the simplification
// Ȟ = ⟨V, Ě⟩ that keeps only toplexes. A toplex is a hyperedge not
// strictly contained in any other hyperedge; simplification can shrink
// the hypergraph substantially and thereby the memory footprint of the
// later stages.
package toplex

import (
	"sort"

	"hyperline/internal/hg"
)

// Toplexes returns the IDs of the maximal hyperedges of h, in
// ascending ID order. Among duplicate hyperedges (identical vertex
// sets) only the lowest ID is kept.
func Toplexes(h *hg.Hypergraph) []uint32 {
	m := h.NumEdges()
	order := make([]uint32, m)
	for e := range order {
		order[e] = uint32(e)
	}
	// Largest first; ties by ascending ID so the lowest-ID duplicate
	// wins deterministically.
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := h.EdgeSize(order[i]), h.EdgeSize(order[j])
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})

	// acceptedAt[v] lists accepted toplexes containing v.
	acceptedAt := make([][]uint32, h.NumVertices())
	var accepted []uint32
	for _, e := range order {
		verts := h.EdgeVertices(e)
		if len(verts) == 0 {
			continue // empty edges are never toplexes
		}
		// A container of e must contain every vertex of e; probe via
		// the member vertex with the fewest accepted toplexes.
		probe := verts[0]
		for _, v := range verts[1:] {
			if len(acceptedAt[v]) < len(acceptedAt[probe]) {
				probe = v
			}
		}
		contained := false
		for _, t := range acceptedAt[probe] {
			if isSubset(verts, h.EdgeVertices(t)) {
				contained = true
				break
			}
		}
		if contained {
			continue
		}
		accepted = append(accepted, e)
		for _, v := range verts {
			acceptedAt[v] = append(acceptedAt[v], e)
		}
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	return accepted
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []uint32) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// Simplify returns the simplification Ȟ containing only the toplexes
// of h, along with the mapping from new hyperedge IDs to the original
// IDs. The vertex ID space is unchanged.
func Simplify(h *hg.Hypergraph) (*hg.Hypergraph, []uint32) {
	return hg.InducedByEdges(h, Toplexes(h))
}
