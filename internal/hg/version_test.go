package hg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// sameRows asserts that v reads as h row for row in both orientations,
// through the Dual view too, and walks the same row lengths.
func sameRows(t *testing.T, label string, v *Version, h *Hypergraph) {
	t.Helper()
	if v.NumEdges() != h.NumEdges() || v.NumVertices() != h.NumVertices() || v.Incidences() != h.Incidences() {
		t.Fatalf("%s: sizes (%d, %d, %d), want (%d, %d, %d)", label,
			v.NumEdges(), v.NumVertices(), v.Incidences(), h.NumEdges(), h.NumVertices(), h.Incidences())
	}
	w := v.edgeSizes()
	for e := uint32(0); int(e) < h.NumEdges(); e++ {
		if !slices.Equal(v.EdgeVertices(e), h.EdgeVertices(e)) {
			t.Fatalf("%s: hyperedge %d reads %v, want %v", label, e, v.EdgeVertices(e), h.EdgeVertices(e))
		}
		if got := w.at(int(e)); got != h.EdgeSize(e) {
			t.Fatalf("%s: size walk at hyperedge %d is %d, want %d", label, e, got, h.EdgeSize(e))
		}
	}
	d, dw := v.Dual(), v.Dual().edgeSizes()
	for u := uint32(0); int(u) < h.NumVertices(); u++ {
		if !slices.Equal(v.VertexEdges(u), h.VertexEdges(u)) || !slices.Equal(d.EdgeVertices(u), h.VertexEdges(u)) {
			t.Fatalf("%s: vertex %d reads %v, want %v", label, u, v.VertexEdges(u), h.VertexEdges(u))
		}
		if got := dw.at(int(u)); got != h.VertexDegree(u) {
			t.Fatalf("%s: dual size walk at vertex %d is %d, want %d", label, u, got, h.VertexDegree(u))
		}
	}
}

// sameBuild asserts that v builds exactly h's CSR.
func sameBuild(t *testing.T, label string, v *Version, h *Hypergraph) {
	t.Helper()
	b := v.Flat()
	if err := b.Validate(); err != nil {
		t.Fatalf("%s: built CSR invalid: %v", label, err)
	}
	if !reflect.DeepEqual(b, h) {
		t.Fatalf("%s: built CSR differs from a rebuild", label)
	}
}

// TestPendingVersionEditAcrossChunks chains edits of a hypergraph whose
// vertex orientation spans several 256-row chunks of rewritten rows:
// rows on either side of a chunk boundary, the first and last rows,
// vertices new to the hypergraph (in a chunk past the table), and rows
// rewritten by two pending edits. Every step must read as a rebuild
// from edge lists with nothing built; the one build must equal the
// rebuild; and an edit of a built version — the line view or the dual
// one — starts from its rows.
func TestPendingVersionEditAcrossChunks(t *testing.T) {
	const n = 700
	r := rand.New(rand.NewSource(5))
	edges := make([][]uint32, 300)
	for e := range edges {
		for size := 2 + r.Intn(5); len(edges[e]) < size; {
			if u := uint32(r.Intn(n)); !slices.Contains(edges[e], u) {
				edges[e] = append(edges[e], u)
			}
		}
		slices.Sort(edges[e])
	}
	steps := []struct {
		dels []uint32
		ins  [][]uint32
	}{
		{[]uint32{0}, [][]uint32{{0, 255, 256, 511, 512, n - 1}}},
		{[]uint32{299, 300}, [][]uint32{{255, 256}, {n, n + 300}}},
		{[]uint32{5, 17, 301}, [][]uint32{{1}, {256, n + 300}}},
		{nil, [][]uint32{{0, 1, 2, 3, 4, 5, 6, 7}}},
	}
	builds := 0
	v := NewVersion(FromEdgeSlices(edges, n), func() { builds++ })
	var want *Hypergraph
	numVertices := n
	for i, st := range steps {
		for _, e := range st.dels {
			edges[e] = nil
		}
		for _, vs := range st.ins {
			edges = append(edges, vs)
			numVertices = max(numVertices, int(vs[len(vs)-1])+1)
		}
		want = FromEdgeSlices(edges, numVertices)
		v = v.Edit(st.dels, st.ins)
		sameRows(t, fmt.Sprintf("step %d", i), v, want)
	}
	if builds != 0 || !v.Pending() {
		t.Fatalf("the chain built %d times, want 0", builds)
	}
	sameBuild(t, "chain", v, want)
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}

	next := v.Edit([]uint32{1}, [][]uint32{{2, 3}})
	edges[1] = nil
	edges = append(edges, []uint32{2, 3})
	sameRows(t, "edit of the built chain", next, FromEdgeSlices(edges, numVertices))
	if own := NewVersion(v.Flat(), nil).Edit([]uint32{1}, [][]uint32{{2, 3}}); next.PendingIncidences() != own.PendingIncidences() {
		t.Fatalf("an edit of a built version carries %d pending entries, want only its own %d",
			next.PendingIncidences(), own.PendingIncidences())
	}

	h := v.Flat()
	dv := NewVersion(h, nil).Dual()
	dual := h.Dual().EdgeSlices()
	dual[0] = nil
	dual = append(dual, []uint32{1, 2})
	want = FromEdgeSlices(dual, h.NumEdges())
	next = dv.Edit([]uint32{0}, [][]uint32{{1, 2}})
	sameRows(t, "dual edit", next, want)
	sameBuild(t, "dual edit", next, want)
}

// TestRewrittenChunkOwnsExactArrays: a chunk an edit rewrites again gets
// arrays of its own, sized exactly (cap == len) and sharing no storage
// with the chunk it replaces, in both orientations, while the version
// still reads as a rebuild.
func TestRewrittenChunkOwnsExactArrays(t *testing.T) {
	edges := [][]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}
	v1 := NewVersion(FromEdgeSlices(edges, 5), nil).Edit([]uint32{1}, [][]uint32{{1, 3}})
	v2 := v1.Edit([]uint32{3}, [][]uint32{{0, 2, 4}})
	edges[1], edges[3] = nil, nil
	sameRows(t, "two edits", v2, FromEdgeSlices(append(edges, []uint32{1, 3}, []uint32{0, 2, 4}), 5))
	for name, x := range map[string][2]*chunk{
		"edge":   {v1.edge.chunks[0], v2.edge.chunks[0]},
		"vertex": {v1.vert.chunks[0], v2.vert.chunks[0]},
	} {
		prev, c := x[0], x[1]
		if prev == c {
			t.Fatalf("%s: the second edit kept the first edit's chunk", name)
		}
		if cap(c.ids) != len(c.ids) || cap(c.off) != len(c.off) || cap(c.adj) != len(c.adj) {
			t.Fatalf("%s: rewritten chunk arrays have len/cap ids %d/%d, off %d/%d, adj %d/%d", name,
				len(c.ids), cap(c.ids), len(c.off), cap(c.off), len(c.adj), cap(c.adj))
		}
		if shares(c.ids, prev.ids) || shares(c.off, prev.off) || shares(c.adj, prev.adj) {
			t.Fatalf("%s: rewritten chunk shares storage with the chunk it replaces", name)
		}
	}
}

// shares reports whether the backing arrays of a and b overlap.
func shares[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[:1][0])
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}
