// Package hg implements the hypergraph substrate: compressed sparse row
// (CSR) storage of the bipartite incidence structure B(H) with both
// orientations (edge→vertices and vertex→edges), the O(1) dual view, and
// the pre-processing operations of Stage 1 of the paper's framework
// (removing empty edges and isolated vertices, relabel-by-degree).
//
// A hypergraph H = ⟨V, E⟩ has n vertices and an indexable family of m
// hyperedges, each an arbitrary subset of V. Vertices and hyperedges are
// identified by dense uint32 IDs. Both CSR adjacency lists are kept
// sorted, which the set-intersection algorithm (Algorithm 1) relies on.
package hg

import (
	"fmt"
	"runtime"
	"sync"
)

// Hypergraph is an immutable hypergraph in CSR form. Construct one with
// a Builder, FromEdgeSlices, or the hgio readers.
//
// The four CSR arrays may be heap-allocated or may alias out-of-heap
// storage (an mmap'd file — see hgio.MapBinary). In the latter case the
// hypergraph carries a backing handle shared by every view derived from
// it (Dual), and Close releases the storage; see SetReleaser.
type Hypergraph struct {
	numVertices int
	numEdges    int

	// edge -> sorted vertex IDs (rows of the incidence matrix Hᵀ).
	eOff []int64
	eAdj []uint32
	// vertex -> sorted edge IDs (rows of the incidence matrix H).
	vOff []int64
	vAdj []uint32

	// back owns out-of-heap storage backing the CSR arrays; nil for
	// heap-backed hypergraphs.
	back *backing
}

// backing owns the out-of-heap storage (typically an mmap) behind a
// Hypergraph. It is shared by pointer across every view of the same
// storage, so the release runs exactly once no matter how many views
// call Close — and a GC finalizer on the backing (set by the mapper)
// fires only when no view references it anymore.
type backing struct {
	once    sync.Once
	release func() error
	err     error
}

// close releases the storage exactly once and remembers the outcome.
func (b *backing) close() error {
	b.once.Do(func() {
		if b.release != nil {
			b.err = b.release()
		}
	})
	return b.err
}

// SetReleaser attaches the function that releases h's out-of-heap
// storage. Mappers such as hgio.MapBinary call it once, right after
// constructing the hypergraph; heap-backed hypergraphs never carry one.
// Besides enabling Close, it arranges a GC finalizer on the shared
// backing handle, so dropping the last reference to the hypergraph (and
// every Dual view of it) eventually releases the storage even without
// an explicit Close — the lifecycle a serving registry needs when it
// replaces a dataset that concurrent readers may still hold.
func (h *Hypergraph) SetReleaser(release func() error) {
	h.back = &backing{release: release}
	runtime.SetFinalizer(h.back, func(b *backing) { _ = b.close() })
}

// Close releases the hypergraph's out-of-heap storage (an mmap), if
// any; it is a no-op for heap-backed hypergraphs and idempotent
// otherwise. Views created by Dual share the backing: Close on any view
// releases it for all, so call it only when no view is in use anymore.
// Long-lived servers that replace datasets under concurrent readers
// should instead drop all references and let the mapper's GC finalizer
// release the storage once the last reader is gone.
func (h *Hypergraph) Close() error {
	if h.back == nil {
		return nil
	}
	return h.back.close()
}

// Mapped reports whether the hypergraph's CSR arrays alias out-of-heap
// storage (and therefore have a Close lifecycle).
func (h *Hypergraph) Mapped() bool { return h.back != nil }

// CSR exposes the raw CSR arrays of both orientations: eOff/eAdj are
// the edge→vertices rows, vOff/vAdj the vertex→edges rows, with
// eOff[len]=vOff[len]=Incidences(). The slices alias internal storage
// and must not be modified; hgio serializers and the spill tier read
// them to persist hypergraphs without re-walking the structure.
func (h *Hypergraph) CSR() (eOff []int64, eAdj []uint32, vOff []int64, vAdj []uint32) {
	return h.eOff, h.eAdj, h.vOff, h.vAdj
}

// FromCSR constructs a hypergraph directly from its four CSR arrays
// (which it aliases, not copies — the caller transfers ownership).
// Only the O(1) frame invariants are checked here: offset lengths and
// endpoints, and matching incidence counts. Callers holding untrusted
// data must validate content themselves (hgio.ReadBinary derives the
// vertex orientation instead of trusting it; Validate checks
// everything at O(nnz log) cost).
func FromCSR(numEdges, numVertices int, eOff []int64, eAdj []uint32, vOff []int64, vAdj []uint32) (*Hypergraph, error) {
	if len(eOff) != numEdges+1 || len(vOff) != numVertices+1 {
		return nil, fmt.Errorf("hg: offset lengths (%d, %d) do not match sizes (%d edges, %d vertices)",
			len(eOff), len(vOff), numEdges, numVertices)
	}
	if len(eAdj) != len(vAdj) {
		return nil, fmt.Errorf("hg: orientation mismatch: %d edge-side vs %d vertex-side incidences",
			len(eAdj), len(vAdj))
	}
	if eOff[0] != 0 || eOff[numEdges] != int64(len(eAdj)) {
		return nil, fmt.Errorf("hg: edge offsets endpoints [%d,%d], want [0,%d]", eOff[0], eOff[numEdges], len(eAdj))
	}
	if vOff[0] != 0 || vOff[numVertices] != int64(len(vAdj)) {
		return nil, fmt.Errorf("hg: vertex offsets endpoints [%d,%d], want [0,%d]", vOff[0], vOff[numVertices], len(vAdj))
	}
	return &Hypergraph{
		numVertices: numVertices,
		numEdges:    numEdges,
		eOff:        eOff,
		eAdj:        eAdj,
		vOff:        vOff,
		vAdj:        vAdj,
	}, nil
}

// NumVertices returns n = |V|.
func (h *Hypergraph) NumVertices() int { return h.numVertices }

// NumEdges returns m = |E|.
func (h *Hypergraph) NumEdges() int { return h.numEdges }

// Incidences returns the number of (vertex, edge) incidence pairs, i.e.
// the number of non-zeros |H| of the incidence matrix.
func (h *Hypergraph) Incidences() int64 { return int64(len(h.eAdj)) }

// EdgeVertices returns the sorted vertex list of hyperedge e. The
// returned slice aliases internal storage and must not be modified.
func (h *Hypergraph) EdgeVertices(e uint32) []uint32 {
	return h.eAdj[h.eOff[e]:h.eOff[e+1]]
}

// VertexEdges returns the sorted list of hyperedges containing vertex
// v. The returned slice aliases internal storage and must not be
// modified.
func (h *Hypergraph) VertexEdges(v uint32) []uint32 {
	return h.vAdj[h.vOff[v]:h.vOff[v+1]]
}

// EdgeSize returns |e|, the number of vertices in hyperedge e. The
// paper calls this inc({e}) and, in the context of the algorithms'
// degree-based pruning, the "degree" of the hyperedge.
func (h *Hypergraph) EdgeSize(e uint32) int {
	return int(h.eOff[e+1] - h.eOff[e])
}

// VertexDegree returns deg(v) = adj({v}), the number of hyperedges
// containing v.
func (h *Hypergraph) VertexDegree(v uint32) int {
	return int(h.vOff[v+1] - h.vOff[v])
}

// Dual returns the dual hypergraph H*: vertices of H* are the
// hyperedges of H and vice versa (the transposed incidence matrix).
// The view shares storage with h — including any out-of-heap backing,
// which the view keeps alive — so Dual is O(1) and (H*)* = H.
func (h *Hypergraph) Dual() *Hypergraph {
	return &Hypergraph{
		numVertices: h.numEdges,
		numEdges:    h.numVertices,
		eOff:        h.vOff,
		eAdj:        h.vAdj,
		vOff:        h.eOff,
		vAdj:        h.eAdj,
		back:        h.back,
	}
}

// Inc returns inc(e, f) = |e ∩ f|, the number of vertices shared by
// hyperedges e and f, by merging the two sorted vertex lists.
func (h *Hypergraph) Inc(e, f uint32) int {
	return IntersectSize(h.EdgeVertices(e), h.EdgeVertices(f))
}

// Adj returns adj(u, v) = |{e ⊇ {u,v}}|, the number of hyperedges
// containing both vertices.
func (h *Hypergraph) Adj(u, v uint32) int {
	return IntersectSize(h.VertexEdges(u), h.VertexEdges(v))
}

// MaxEdgeSize returns ∆e, the maximum hyperedge size (0 for an
// edge-less hypergraph).
func (h *Hypergraph) MaxEdgeSize() int {
	max := 0
	for e := 0; e < h.numEdges; e++ {
		if s := h.EdgeSize(uint32(e)); s > max {
			max = s
		}
	}
	return max
}

// MaxVertexDegree returns ∆v, the maximum vertex degree.
func (h *Hypergraph) MaxVertexDegree() int {
	return h.Dual().MaxEdgeSize()
}

// Validate checks internal CSR consistency: monotone offsets, sorted
// strictly-increasing adjacency lists, in-range IDs, and that the two
// orientations describe the same incidence set.
func (h *Hypergraph) Validate() error {
	if err := validateCSR(h.eOff, h.eAdj, h.numEdges, h.numVertices, "edge"); err != nil {
		return err
	}
	if err := validateCSR(h.vOff, h.vAdj, h.numVertices, h.numEdges, "vertex"); err != nil {
		return err
	}
	if len(h.eAdj) != len(h.vAdj) {
		return fmt.Errorf("hg: orientation mismatch: %d edge-side vs %d vertex-side incidences",
			len(h.eAdj), len(h.vAdj))
	}
	// Cross-check: every (e, v) incidence must appear in the dual
	// orientation.
	for e := 0; e < h.numEdges; e++ {
		for _, v := range h.EdgeVertices(uint32(e)) {
			if !contains(h.VertexEdges(v), uint32(e)) {
				return fmt.Errorf("hg: incidence (e=%d, v=%d) missing from vertex orientation", e, v)
			}
		}
	}
	return nil
}

func validateCSR(off []int64, adj []uint32, rows, cols int, kind string) error {
	if len(off) != rows+1 {
		return fmt.Errorf("hg: %s offsets length %d, want %d", kind, len(off), rows+1)
	}
	if off[0] != 0 || off[rows] != int64(len(adj)) {
		return fmt.Errorf("hg: %s offsets endpoints [%d,%d], want [0,%d]", kind, off[0], off[rows], len(adj))
	}
	for i := 0; i < rows; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("hg: %s offsets not monotone at %d", kind, i)
		}
		row := adj[off[i]:off[i+1]]
		for j, id := range row {
			if int(id) >= cols {
				return fmt.Errorf("hg: %s row %d has out-of-range id %d (cols=%d)", kind, i, id, cols)
			}
			if j > 0 && row[j-1] >= id {
				return fmt.Errorf("hg: %s row %d not strictly sorted at pos %d", kind, i, j)
			}
		}
	}
	return nil
}

func contains(sorted []uint32, x uint32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// IntersectSize returns the size of the intersection of two sorted
// uint32 slices.
func IntersectSize(a, b []uint32) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// IntersectAtLeast reports whether the sorted slices a and b share at
// least s elements, short-circuiting as soon as the outcome is decided
// in either direction: it returns early both when s common elements
// have been confirmed and when the remaining elements cannot reach s.
// This is the "short-circuiting set intersection" heuristic of
// Algorithm 1.
func IntersectAtLeast(a, b []uint32, s int) bool {
	if s <= 0 {
		return true
	}
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Remaining potential: even if every remaining element
		// matched, can we still reach s?
		rem := len(a) - i
		if r := len(b) - j; r < rem {
			rem = r
		}
		if n+rem < s {
			return false
		}
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			if n >= s {
				return true
			}
			i++
			j++
		}
	}
	return false
}
