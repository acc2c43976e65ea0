// Package delta implements incremental maintenance of streaming
// hypergraphs: batched hyperedge insert/delete deltas composed onto an
// immutable hypergraph version (hg.Version) produce the next dataset
// version without re-parsing or copying it, and the Stage-3 patcher
// (patch.go) exploits Algorithm 2's locality — a hyperedge only
// perturbs overlap counts within its 2-hop neighborhood — to patch
// cached s-line projections instead of recomputing five stages.
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

// Normalize validates d against its base and canonicalizes it in place:
// insert vertex lists are sorted and deduplicated, deletes are sorted,
// deduplicated, and checked in-range against non-empty base rows, and
// vertex IDs are checked against the growth bound. A normalized delta
// is safe to Apply without further allocation hazards: every array
// Apply sizes is bounded by the base plus the delta's own payload, so a
// hostile wire body cannot demand an allocation it did not pay for.
func (d *Delta) Normalize(base hg.Rows) error {
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

// Compose returns the version d makes of v without building it: the
// deleted hyperedges' rows become empty in place, inserts append, and
// only those rows and their member vertices' rows are rewritten
// (hg.Version.Edit), so the work is O(delta) plus the rows v itself
// carries pending. Once the pending rows pass 1/deferFraction of the
// base's incidences in both orientations, the new version is built at
// once (deferFraction's rule for deferred projections, one layer down)
// and becomes the base of the next compose. d is normalized against v
// first.
func Compose(v *hg.Version, d *Delta) (*hg.Version, error) {
	if err := d.Normalize(v); err != nil {
		return nil, err
	}
	next := v.Edit(d.Deletes, d.Inserts)
	if next.PendingIncidences() > 2*next.BaseIncidences()/deferFraction {
		next.Flat()
	}
	return next, nil
}

// Apply materializes the post-delta hypergraph: base rows survive
// unchanged, deleted rows become empty, and inserts append. It is
// Compose and then the build — rows edited rather than rebuilt: in both
// orientations every row the delta does not touch is copied as part of
// a contiguous span with its offset shifted, and only the deleted and
// inserted hyperedges' rows and their member vertices' rows are
// rewritten — no text re-parse, no sort of the whole, no transpose. The
// result shares no storage with the base (the base may be mmap-backed
// and replaced underneath long-lived readers).
func Apply(base *hg.Hypergraph, d *Delta) (*hg.Hypergraph, error) {
	next, err := Compose(hg.NewVersion(base, nil), d)
	if err != nil {
		return nil, err
	}
	return next.Flat(), nil
}

// CarryStats carries st — the statistics of old, hg.ComputeStats —
// across d to next, the version d composed onto old, in O(delta) and
// without a build: the sizes come from next, WedgePairs moves by the
// touched vertices' degree changes and EdgePairs by the deleted and
// inserted hyperedges, and each maximum is rescanned only when the
// delta shrinks an element that held it. The result equals
// hg.ComputeStats on next's built CSR. ToplexSample is cleared: the
// containment probe is next's own, taken the first time something
// reads it.
func CarryStats(st hg.Stats, old, next *hg.Version, d *Delta) hg.Stats {
	oldMaxV, oldMaxE := st.MaxVertexDegree, st.MaxEdgeSize
	st.NumVertices, st.NumEdges, st.Incidences = next.NumVertices(), next.NumEdges(), next.Incidences()
	st.AvgVertexDegree, st.AvgEdgeSize = 0, 0
	if st.NumVertices > 0 {
		st.AvgVertexDegree = float64(st.Incidences) / float64(st.NumVertices)
	}
	if st.NumEdges > 0 {
		st.AvgEdgeSize = float64(st.Incidences) / float64(st.NumEdges)
	}

	pairs := func(deg int) int64 { return int64(deg) * int64(deg-1) / 2 }
	touched := make([]uint32, 0, d.insertIncidences())
	rescanE := false
	for _, e := range d.Deletes {
		vs := old.EdgeVertices(e)
		rescanE = rescanE || len(vs) == oldMaxE
		st.EdgePairs -= pairs(len(vs))
		touched = append(touched, vs...)
	}
	for _, vs := range d.Inserts {
		st.MaxEdgeSize = max(st.MaxEdgeSize, len(vs))
		st.EdgePairs += pairs(len(vs))
		touched = append(touched, vs...)
	}
	if rescanE {
		st.MaxEdgeSize = next.MaxEdgeSize()
	}
	slices.Sort(touched)
	rescanV := false
	for _, v := range slices.Compact(touched) {
		was := 0
		if int(v) < old.NumVertices() {
			was = old.VertexDegree(v)
		}
		now := next.VertexDegree(v)
		st.WedgePairs += pairs(now) - pairs(was)
		st.MaxVertexDegree = max(st.MaxVertexDegree, now)
		rescanV = rescanV || (was == oldMaxV && now < was)
	}
	if rescanV {
		st.MaxVertexDegree = next.MaxVertexDegree()
	}
	st.ToplexSample = 0
	return st
}
