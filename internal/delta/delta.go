// Package delta implements incremental maintenance of streaming
// hypergraphs: batched hyperedge insert/delete deltas applied to an
// immutable hg.Hypergraph produce the next dataset version without
// re-parsing, and the Stage-3 patcher (patch.go) exploits Algorithm 2's
// locality — a hyperedge only perturbs overlap counts within its 2-hop
// neighborhood — to patch cached s-line projections instead of
// recomputing five stages.
//
// # ID stability
//
// Deltas operate on whole hyperedges, and the ID spaces are append-only:
//
//   - A deleted hyperedge's row becomes empty in place; its ID is never
//     reused. Stage 1 (hg.Preprocess) already drops empty hyperedges, so
//     the projection pipeline sees the deletion without any remapping.
//   - Inserted hyperedges take the next IDs after the current edge
//     space, in batch order.
//   - Vertices are never deleted (a vertex with no remaining incidences
//     is simply isolated, which Stage 1 also drops); inserted edges may
//     reference new vertex IDs, growing the vertex space.
//
// Stable original IDs are what make cached projections patchable: a
// projection's HyperedgeIDs map graph nodes to original IDs, which mean
// the same thing before and after a delta.
package delta

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"hyperline/internal/hg"
)

// MaxBatch bounds the number of hyperedge operations (inserts plus
// deletes) one delta may carry, keeping a single (possibly
// unauthenticated) ingest request's work bounded the same way
// core.MaxSValues bounds a batch query.
const MaxBatch = 1 << 20

// Delta is one batch of whole-hyperedge mutations against a specific
// base hypergraph. The zero value is an empty delta. The JSON form is
// the /v2/ingest wire format:
//
//	{"inserts": [[0,3,7], [2,5]], "deletes": [12, 40]}
//
// Deletes name hyperedge IDs of the base; inserts list the member
// vertices of each appended hyperedge. Normalize validates and
// canonicalizes a delta against its base before use.
type Delta struct {
	// Inserts lists the vertex set of each appended hyperedge; insert i
	// receives ID base.NumEdges()+i.
	Inserts [][]uint32 `json:"inserts,omitempty"`
	// Deletes names base hyperedge IDs whose rows become empty.
	Deletes []uint32 `json:"deletes,omitempty"`
}

// Empty reports whether the delta carries no operations.
func (d *Delta) Empty() bool {
	return d == nil || (len(d.Inserts) == 0 && len(d.Deletes) == 0)
}

// Ops returns the number of hyperedge operations in the delta.
func (d *Delta) Ops() int {
	if d == nil {
		return 0
	}
	return len(d.Inserts) + len(d.Deletes)
}

// insertIncidences sums the inserted vertex-list lengths.
func (d *Delta) insertIncidences() int64 {
	var n int64
	for _, vs := range d.Inserts {
		n += int64(len(vs))
	}
	return n
}

// Parse decodes the /v2/ingest wire format. Structural decoding only —
// the delta still needs Normalize against its base before Apply.
func Parse(data []byte) (*Delta, error) {
	var d Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("delta: bad wire format: %w", err)
	}
	return &d, nil
}

// Normalize validates d against its base and canonicalizes it in place:
// insert vertex lists are sorted and deduplicated, deletes are sorted,
// deduplicated, and checked in-range against non-empty base rows, and
// vertex IDs are checked against the growth bound. A normalized delta
// is safe to Apply without further allocation hazards: every array
// Apply sizes is bounded by the base plus the delta's own payload, so a
// hostile wire body cannot demand an allocation it did not pay for.
func (d *Delta) Normalize(base *hg.Hypergraph) error {
	if d == nil {
		return fmt.Errorf("delta: nil delta")
	}
	if d.Ops() == 0 {
		return fmt.Errorf("delta: empty delta (no inserts or deletes)")
	}
	if d.Ops() > MaxBatch {
		return fmt.Errorf("delta: %d operations exceed the per-delta cap %d", d.Ops(), MaxBatch)
	}
	// An empty list is an absent one: the wire form omits both, so only
	// nil survives a JSON round trip.
	if len(d.Inserts) == 0 {
		d.Inserts = nil
	}
	if len(d.Deletes) == 0 {
		d.Deletes = nil
	}
	for i, vs := range d.Inserts {
		if len(vs) == 0 {
			return fmt.Errorf("delta: insert %d is empty (hyperedges must have at least one vertex)", i)
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		w := 1
		for r := 1; r < len(vs); r++ {
			if vs[r] != vs[r-1] {
				vs[w] = vs[r]
				w++
			}
		}
		d.Inserts[i] = vs[:w]
	}
	// Vertex growth bound: every new vertex needs at least one inserted
	// incidence, so the densest legal ID space is the base's plus one ID
	// per (deduplicated, so that Normalize is idempotent) inserted
	// incidence. Checking before Apply allocates keeps a single absurd
	// vertex ID (e.g. 4e9 in a 10-vertex hypergraph) from demanding a
	// multi-gigabyte offset array.
	maxVertex := int64(base.NumVertices()) + d.insertIncidences() - 1
	for i, vs := range d.Inserts {
		if top := int64(vs[len(vs)-1]); top > maxVertex {
			return fmt.Errorf("delta: insert %d references vertex %d beyond the growth bound %d (base has %d vertices)",
				i, top, maxVertex, base.NumVertices())
		}
	}
	if len(d.Deletes) > 0 {
		sort.Slice(d.Deletes, func(a, b int) bool { return d.Deletes[a] < d.Deletes[b] })
		w := 0
		for r, e := range d.Deletes {
			if r > 0 && e == d.Deletes[r-1] {
				continue
			}
			d.Deletes[w] = e
			w++
		}
		d.Deletes = d.Deletes[:w]
		for _, e := range d.Deletes {
			if int(e) >= base.NumEdges() {
				return fmt.Errorf("delta: delete of hyperedge %d out of range (base has %d hyperedges)", e, base.NumEdges())
			}
			if base.EdgeSize(e) == 0 {
				return fmt.Errorf("delta: delete of hyperedge %d, which is already empty (deleted by an earlier delta?)", e)
			}
		}
	}
	return nil
}

// Apply materializes the post-delta hypergraph: base rows survive
// unchanged, deleted rows become empty, and inserts append. It edits
// rows rather than rebuilding: in both orientations every row the delta
// does not touch is copied as part of a contiguous span with its offset
// shifted, and only the deleted and inserted hyperedges' rows and their
// member vertices' rows are rewritten — no text re-parse, no sort of
// the whole, no transpose. The result shares no storage with the base
// (the base may be mmap-backed and replaced underneath long-lived
// readers). d must be normalized against base first.
func Apply(base *hg.Hypergraph, d *Delta) (*hg.Hypergraph, error) {
	if err := d.Normalize(base); err != nil {
		return nil, err
	}
	m, n := base.NumEdges(), base.NumVertices()
	newEdges := m + len(d.Inserts)
	numVertices := n
	var removed int64
	for _, e := range d.Deletes {
		removed += int64(base.EdgeSize(e))
	}
	for _, vs := range d.Inserts {
		numVertices = max(numVertices, int(vs[len(vs)-1])+1)
	}
	nnz := base.Incidences() - removed + d.insertIncidences()
	eOffB, eAdjB, vOffB, vAdjB := base.CSR()

	// Edge orientation: deleted rows empty out, inserted rows (already
	// sorted by Normalize) append. Deletes ascend and every insert ID is
	// above them, so the edited rows are in order.
	edited := make([]uint32, 0, len(d.Deletes)+len(d.Inserts))
	edited = append(edited, d.Deletes...)
	for i := range d.Inserts {
		edited = append(edited, uint32(m+i))
	}
	eOff, eAdj := editRows(eOffB, eAdjB, newEdges, nnz, edited, func(e uint32, row []uint32) []uint32 {
		if int(e) >= m {
			row = append(row, d.Inserts[int(e)-m]...)
		}
		return row
	})

	// Vertex orientation: the incidences the delta removes and adds, as
	// vertex<<32|edge keys sorted by vertex, then edge. The vertices they
	// name are the only rows that change.
	gone := make([]uint64, 0, removed)
	for _, e := range d.Deletes {
		for _, v := range base.EdgeVertices(e) {
			gone = append(gone, uint64(v)<<32|uint64(e))
		}
	}
	added := make([]uint64, 0, d.insertIncidences())
	for i, vs := range d.Inserts {
		for _, v := range vs {
			added = append(added, uint64(v)<<32|uint64(m+i))
		}
	}
	slices.Sort(gone)
	slices.Sort(added)
	touched := make([]uint32, 0, len(gone)+len(added))
	for gi, ai := 0, 0; gi < len(gone) || ai < len(added); {
		var v uint32
		if ai == len(added) || (gi < len(gone) && gone[gi] < added[ai]) {
			v = uint32(gone[gi] >> 32)
			gi++
		} else {
			v = uint32(added[ai] >> 32)
			ai++
		}
		if len(touched) == 0 || touched[len(touched)-1] != v {
			touched = append(touched, v)
		}
	}
	gi, ai := 0, 0
	vOff, vAdj := editRows(vOffB, vAdjB, numVertices, nnz, touched, func(v uint32, row []uint32) []uint32 {
		// The base row without the deleted edges (a sorted subset of it),
		// then the inserted edges — the largest IDs, so the row stays
		// sorted.
		if int(v) < n {
			for _, e := range vAdjB[vOffB[v]:vOffB[v+1]] {
				if gi < len(gone) && gone[gi] == uint64(v)<<32|uint64(e) {
					gi++
					continue
				}
				row = append(row, e)
			}
		}
		for ; ai < len(added) && uint32(added[ai]>>32) == v; ai++ {
			row = append(row, uint32(added[ai]))
		}
		return row
	})
	return hg.FromCSR(newEdges, numVertices, eOff, eAdj, vOff, vAdj)
}

// editRows copies the CSR rows (off, adj) into fresh arrays of rows rows
// and nnz entries, rewriting the rows listed in edited (ascending): fill
// appends an edited row's new contents to dst and returns it. Every
// other row is copied as part of a span between edits, its offset
// shifted; rows past the input's end are empty unless edited.
func editRows(off []int64, adj []uint32, rows int, nnz int64, edited []uint32, fill func(r uint32, dst []uint32) []uint32) ([]int64, []uint32) {
	newOff := make([]int64, rows+1)
	newAdj := make([]uint32, 0, nnz)
	inRows := len(off) - 1
	next := 0 // first row not yet written
	span := func(to int) {
		if hi := min(to, inRows); next < hi {
			shift := int64(len(newAdj)) - off[next]
			newAdj = append(newAdj, adj[off[next]:off[hi]]...)
			for r := next; r < hi; r++ {
				newOff[r+1] = off[r+1] + shift
			}
			next = hi
		}
		for ; next < to; next++ {
			newOff[next+1] = int64(len(newAdj))
		}
	}
	for _, r := range edited {
		span(int(r))
		newAdj = fill(r, newAdj)
		newOff[r+1] = int64(len(newAdj))
		next = int(r) + 1
	}
	span(rows)
	return newOff, newAdj
}

// Invert returns the delta that undoes d, phrased against the
// hypergraph Apply(base, d) produced: it deletes the IDs d's inserts
// received and re-inserts the vertex lists of d's deletes. Applying d
// then Invert(d, base) restores the base's multiset of non-empty
// hyperedge vertex sets — not its ID layout: the twice-applied
// hypergraph keeps tombstone rows and appends the restored hyperedges
// at fresh IDs, which Stage 1 erases. d must be normalized against
// base.
func Invert(d *Delta, base *hg.Hypergraph) *Delta {
	inv := &Delta{}
	m := uint32(base.NumEdges())
	for i := range d.Inserts {
		inv.Deletes = append(inv.Deletes, m+uint32(i))
	}
	for _, e := range d.Deletes {
		vs := append([]uint32(nil), base.EdgeVertices(e)...)
		inv.Inserts = append(inv.Inserts, vs)
	}
	return inv
}
