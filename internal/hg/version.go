package hg

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Rows is read access to one version of a hypergraph, whether its CSR
// is built (*Hypergraph) or pending (*Version). Code that reads a few
// rows of a version — the incremental patcher, Stage 1's order scan,
// the containment probe — takes Rows, so it never forces a build.
type Rows interface {
	NumVertices() int
	NumEdges() int
	Incidences() int64
	EdgeVertices(e uint32) []uint32
	VertexEdges(v uint32) []uint32
	EdgeSize(e uint32) int
	VertexDegree(v uint32) int

	// edgeSizes walks the hyperedge sizes in ID order without a row
	// lookup per hyperedge.
	edgeSizes() sizeWalk
}

// sizeWalk yields the row lengths of base offsets with the rows of x
// rewritten. at must be called for rows 0, 1, 2, … in order: every row
// below the next rewritten one is a base row, read straight from off.
type sizeWalk struct {
	off  []int64
	x    *edits
	next int // the next rewritten row, or -1 past the last
	ci   int // its chunk of x
	j    int // its index in the chunk
}

func newSizeWalk(off []int64, x *edits) sizeWalk {
	w := sizeWalk{off: off, x: x, ci: -1}
	w.advance()
	return w
}

// at returns the length of row r.
func (w *sizeWalk) at(r int) int {
	if r == w.next {
		c := w.x.chunks[w.ci]
		n := int(c.off[w.j+1] - c.off[w.j])
		w.advance()
		return n
	}
	if r+1 < len(w.off) {
		return int(w.off[r+1] - w.off[r])
	}
	return 0
}

// advance moves next to the rewritten row after it.
func (w *sizeWalk) advance() {
	if w.ci >= 0 {
		if w.j++; w.j < len(w.x.chunks[w.ci].ids) {
			w.next = int(w.x.chunks[w.ci].ids[w.j])
			return
		}
	}
	for w.ci++; w.ci < len(w.x.chunks); w.ci++ {
		if c := w.x.chunks[w.ci]; c != nil {
			w.j, w.next = 0, int(c.ids[0])
			return
		}
	}
	w.next = -1
}

// noEdits is the rewritten-row set of a flat hypergraph.
var noEdits edits

func (h *Hypergraph) edgeSizes() sizeWalk { return newSizeWalk(h.eOff, &noEdits) }

// Version is one version of a hypergraph whose CSR may not be built
// yet: a flat base plus the rows that the whole-hyperedge edits since
// that base rewrote (Edit). The rows of both orientations read through
// the edits, and Flat builds the CSR once, for every reader, when
// something needs flat rows. A Version is immutable; its Dual view
// shares the build.
type Version struct {
	// base is the flat hypergraph the edits apply to, in this view's
	// orientation. It keeps any out-of-heap backing of the base alive.
	base *Hypergraph
	// edge and vert are the rewritten rows of the hyperedge and vertex
	// orientations. A row past the base's end that is not rewritten is
	// empty.
	edge, vert  edits
	numEdges    int
	numVertices int
	nnz         int64
	// flat is the build, shared with the Dual view; dual reports that
	// this view is the dual of the hypergraph flat builds.
	flat *flat
	dual bool
}

// edits is a sparse set of rewritten rows of one orientation, split by
// row ID into chunks of 1<<shift rows. A chunk is immutable once made,
// so the next version's edits share every chunk its edit does not
// touch: an edit copies the chunk table and the chunks it rewrites
// rows in, never the whole set.
type edits struct {
	shift  uint
	chunks []*chunk // nil where no row of the chunk was rewritten
	size   int64    // entries across every chunk
}

// chunk holds the rewritten rows of one chunk: row ids[i] reads
// adj[off[i]:off[i+1]].
type chunk struct {
	ids []uint32 // ascending
	off []int64
	adj []uint32
}

// row returns rewritten row r, reporting whether r was rewritten.
func (x *edits) row(r uint32) ([]uint32, bool) {
	ci := int(r >> x.shift)
	if ci >= len(x.chunks) || x.chunks[ci] == nil {
		return nil, false
	}
	c := x.chunks[ci]
	i, ok := slices.BinarySearch(c.ids, r)
	if !ok {
		return nil, false
	}
	return c.adj[c.off[i]:c.off[i+1]], true
}

// flat is a version's CSR once some reader built it.
type flat struct {
	mu      sync.Mutex // serializes the build, so it runs once
	h       atomic.Pointer[Hypergraph]
	onBuild func()
}

// NewVersion returns h as a built version. Versions edited from it
// share onBuild (when non-nil): each is called once by the reader that
// builds a pending version's CSR.
func NewVersion(h *Hypergraph, onBuild func()) *Version {
	f := &flat{onBuild: onBuild}
	f.h.Store(h)
	return &Version{base: h, numEdges: h.numEdges, numVertices: h.numVertices, nnz: h.Incidences(), flat: f}
}

// NumVertices returns n = |V|.
func (v *Version) NumVertices() int { return v.numVertices }

// NumEdges returns m = |E|.
func (v *Version) NumEdges() int { return v.numEdges }

// Incidences returns the number of (vertex, edge) incidence pairs.
func (v *Version) Incidences() int64 { return v.nnz }

// EdgeVertices returns the sorted vertex list of hyperedge e. The
// returned slice aliases internal storage and must not be modified.
func (v *Version) EdgeVertices(e uint32) []uint32 {
	if r, ok := v.edge.row(e); ok {
		return r
	}
	if int(e) < v.base.numEdges {
		return v.base.EdgeVertices(e)
	}
	return nil
}

// VertexEdges returns the sorted list of hyperedges containing vertex
// v. The returned slice aliases internal storage and must not be
// modified.
func (v *Version) VertexEdges(u uint32) []uint32 {
	if r, ok := v.vert.row(u); ok {
		return r
	}
	if int(u) < v.base.numVertices {
		return v.base.VertexEdges(u)
	}
	return nil
}

// EdgeSize returns |e|.
func (v *Version) EdgeSize(e uint32) int { return len(v.EdgeVertices(e)) }

// VertexDegree returns deg(u).
func (v *Version) VertexDegree(u uint32) int { return len(v.VertexEdges(u)) }

func (v *Version) edgeSizes() sizeWalk { return newSizeWalk(v.base.eOff, &v.edge) }

// MaxEdgeSize returns ∆e.
func (v *Version) MaxEdgeSize() int {
	m, w := 0, v.edgeSizes()
	for e := 0; e < v.numEdges; e++ {
		m = max(m, w.at(e))
	}
	return m
}

// MaxVertexDegree returns ∆v.
func (v *Version) MaxVertexDegree() int { return v.Dual().MaxEdgeSize() }

// Dual returns the dual view: the same version with hyperedges and
// vertices swapped, sharing its build.
func (v *Version) Dual() *Version {
	return &Version{
		base:        v.base.Dual(),
		edge:        v.vert,
		vert:        v.edge,
		numEdges:    v.numVertices,
		numVertices: v.numEdges,
		nnz:         v.nnz,
		flat:        v.flat,
		dual:        !v.dual,
	}
}

// Pending reports whether the version's CSR is not built yet.
func (v *Version) Pending() bool { return v.flat.h.Load() == nil }

// PendingIncidences returns the entries of the rows the version
// rewrote since its base, in both orientations: what Edit carries
// forward into the next version.
func (v *Version) PendingIncidences() int64 {
	return v.edge.size + v.vert.size
}

// BaseIncidences returns the incidences of the version's base.
func (v *Version) BaseIncidences() int64 { return v.base.Incidences() }

// Close releases the out-of-heap storage of the version's base, if any
// (see Hypergraph.Close).
func (v *Version) Close() error { return v.base.Close() }

// Flat returns the version as a flat hypergraph, building its CSR on
// the first call — one row edit of the base (editRows) per orientation
// — and sharing it with every later call, the Dual view's included.
// The built CSR shares no storage with the base.
func (v *Version) Flat() *Hypergraph {
	h := v.flat.h.Load()
	if h == nil {
		h = v.build()
	}
	if v.dual {
		return h.Dual()
	}
	return h
}

// build builds the CSR unless another reader already has; only the
// reader that built it calls onBuild, outside the lock.
func (v *Version) build() *Hypergraph {
	p := v
	if v.dual {
		p = v.Dual()
	}
	f := v.flat
	f.mu.Lock()
	h := f.h.Load()
	built := h == nil
	if built {
		eOff, eAdj := editRows(p.base.eOff, p.base.eAdj, p.numEdges, p.nnz, &p.edge)
		vOff, vAdj := editRows(p.base.vOff, p.base.vAdj, p.numVertices, p.nnz, &p.vert)
		h = newHypergraph(p.numEdges, p.numVertices, eOff, eAdj, vOff, vAdj)
		f.h.Store(h)
	}
	f.mu.Unlock()
	if built && f.onBuild != nil {
		f.onBuild()
	}
	return h
}

// Edit returns the version that deletes the hyperedges dels from v and
// appends the hyperedges ins, in order, after v's last ID: deleted rows
// become empty in place, and the vertex space grows to cover the
// inserted rows. It rewrites only the deleted and inserted hyperedges'
// rows and their member vertices' rows, carrying v's own rewritten rows
// forward — from v's built CSR when v has one, else from v's base — and
// builds nothing. dels must ascend and name non-empty hyperedges of v;
// each row of ins must be non-empty, sorted and free of duplicates. The
// new version shares v's build hook.
func (v *Version) Edit(dels []uint32, ins [][]uint32) *Version {
	from := v
	if !v.Pending() {
		from = &Version{base: v.Flat(), numEdges: v.numEdges, numVertices: v.numVertices, nnz: v.nnz}
	}
	m := from.numEdges
	next := &Version{
		base:        from.base,
		numEdges:    m + len(ins),
		numVertices: from.numVertices,
		nnz:         from.nnz,
		flat:        &flat{onBuild: v.flat.onBuild},
	}
	var removed, added int64
	for _, e := range dels {
		removed += int64(from.EdgeSize(e))
	}
	for _, vs := range ins {
		added += int64(len(vs))
		next.numVertices = max(next.numVertices, int(vs[len(vs)-1])+1)
	}
	next.nnz += added - removed

	// Edge orientation: deleted rows empty out, inserted rows append.
	// Every insert ID is above the deletes, so the rewritten rows ascend.
	rows := make([]uint32, 0, len(dels)+len(ins))
	rows = append(rows, dels...)
	for i := range ins {
		rows = append(rows, uint32(m+i))
	}
	next.edge = from.edge.with(rows, next.numEdges, added, func(e uint32, dst []uint32) []uint32 {
		if int(e) >= m {
			dst = append(dst, ins[int(e)-m]...)
		}
		return dst
	})

	// Vertex orientation: the incidences the edit removes and adds, as
	// vertex<<32|edge keys sorted by vertex, then edge. The vertices they
	// name are the only rows that change.
	gone := make([]uint64, 0, removed)
	for _, e := range dels {
		for _, u := range from.EdgeVertices(e) {
			gone = append(gone, uint64(u)<<32|uint64(e))
		}
	}
	put := make([]uint64, 0, added)
	for i, vs := range ins {
		for _, u := range vs {
			put = append(put, uint64(u)<<32|uint64(m+i))
		}
	}
	slices.Sort(gone)
	slices.Sort(put)
	touched := make([]uint32, 0, len(gone)+len(put))
	for gi, pi := 0, 0; gi < len(gone) || pi < len(put); {
		var u uint32
		if pi == len(put) || (gi < len(gone) && gone[gi] < put[pi]) {
			u = uint32(gone[gi] >> 32)
			gi++
		} else {
			u = uint32(put[pi] >> 32)
			pi++
		}
		if len(touched) == 0 || touched[len(touched)-1] != u {
			touched = append(touched, u)
		}
	}
	var grown int64
	for _, u := range touched {
		grown += int64(from.VertexDegree(u))
	}
	gi, pi := 0, 0
	next.vert = from.vert.with(touched, next.numVertices, grown+added, func(u uint32, dst []uint32) []uint32 {
		// The row without the deleted edges (a sorted subset of it), then
		// the inserted edges — the largest IDs, so the row stays sorted.
		for _, e := range from.VertexEdges(u) {
			if gi < len(gone) && gone[gi] == uint64(u)<<32|uint64(e) {
				gi++
				continue
			}
			dst = append(dst, e)
		}
		for ; pi < len(put) && uint32(put[pi]>>32) == u; pi++ {
			dst = append(dst, uint32(put[pi]))
		}
		return dst
	})
	return next
}

// minChunkShift is the smallest chunk of rewritten rows: 256 rows.
// Orientations of more than 2^18 rows use wider chunks, so the chunk
// table an edit copies stays at about a thousand entries.
const minChunkShift = 8

// with returns x with the rows in rows (ascending) rewritten — fill
// appends row r's new contents to dst and returns it — and every other
// row of x carried over. numRows is the orientation's row count, which
// sizes the chunks of a first edit; extra bounds the entries of the
// rewritten rows' new contents.
//
// The chunks an edit creates share one set of arrays, so the first edit
// of a flat base (all Apply makes) allocates the same few arrays however
// many chunks it touches. A chunk that replaces an earlier one gets
// arrays of its own, sized exactly (cap == len): cut from a shared set,
// it would keep the whole set alive for as long as any chunk cut from it
// lives.
func (x *edits) with(rows []uint32, numRows int, extra int64, fill func(r uint32, dst []uint32) []uint32) edits {
	out := edits{shift: x.shift, size: x.size}
	if x.chunks == nil {
		out.shift = uint(max(minChunkShift, bits.Len(uint(numRows)>>10)))
	}
	top := len(x.chunks)
	if len(rows) > 0 {
		top = max(top, int(rows[len(rows)-1]>>out.shift)+1)
	}
	out.chunks = make([]*chunk, top)
	copy(out.chunks, x.chunks)

	fresh, freshRows := 0, 0
	for i, r := range rows {
		if ci := int(r >> out.shift); ci >= len(x.chunks) || x.chunks[ci] == nil {
			freshRows++
			if i == 0 || rows[i-1]>>out.shift != r>>out.shift {
				fresh++
			}
		}
	}
	made := make([]chunk, fresh)
	shared := chunk{
		ids: make([]uint32, 0, freshRows),
		off: make([]int64, 0, freshRows+fresh),
		adj: make([]uint32, 0, extra),
	}
	var buf chunk
	for lo := 0; lo < len(rows); {
		ci := rows[lo] >> out.shift
		hi := lo + 1
		for hi < len(rows) && rows[hi]>>out.shift == ci {
			hi++
		}
		old := out.chunks[ci]
		var c *chunk
		if old == nil {
			c, made = &made[0], made[1:]
			*c = shared.add(&chunk{off: []int64{0}}, rows[lo:hi], fill)
		} else {
			c = old.rewrite(rows[lo:hi], fill, &buf)
			out.size -= int64(len(old.adj))
		}
		out.size += int64(len(c.adj))
		out.chunks[ci] = c
		lo = hi
	}
	return out
}

// rewrite returns c with rows (ascending, all in c's chunk) rewritten by
// fill, in arrays of its own sized exactly. Only the rewritten rows are
// filled into buf first, to learn their sizes; every carried row is
// copied once.
func (c *chunk) rewrite(rows []uint32, fill func(r uint32, dst []uint32) []uint32, buf *chunk) *chunk {
	*buf = chunk{ids: buf.ids[:0], off: buf.off[:0], adj: buf.adj[:0]}
	f := buf.add(&chunk{off: []int64{0}}, rows, fill)
	n, size := len(c.ids)+len(rows), len(c.adj)+len(f.adj)
	for _, r := range rows {
		if j, ok := slices.BinarySearch(c.ids, r); ok {
			n, size = n-1, size-int(c.off[j+1]-c.off[j])
		}
	}
	out := chunk{ids: make([]uint32, 0, n), off: make([]int64, 0, n+1), adj: make([]uint32, 0, size)}
	k := 0
	out = out.add(c, rows, func(_ uint32, dst []uint32) []uint32 {
		k++
		return append(dst, f.adj[f.off[k-1]:f.off[k]]...)
	})
	return &out
}

// add appends to b's arrays the chunk old with rows (ascending, all in
// old's chunk) rewritten by fill, and returns it as the appended parts.
func (b *chunk) add(old *chunk, rows []uint32, fill func(r uint32, dst []uint32) []uint32) chunk {
	i0, o0, a0 := len(b.ids), len(b.off), len(b.adj)
	b.off = append(b.off, 0)
	j := 0 // next row of old to carry
	carry := func(below uint32, all bool) {
		for ; j < len(old.ids) && (all || old.ids[j] < below); j++ {
			b.ids = append(b.ids, old.ids[j])
			b.adj = append(b.adj, old.adj[old.off[j]:old.off[j+1]]...)
			b.off = append(b.off, int64(len(b.adj)-a0))
		}
	}
	for _, r := range rows {
		carry(r, false)
		if j < len(old.ids) && old.ids[j] == r {
			j++ // rewritten again
		}
		b.ids = append(b.ids, r)
		b.adj = fill(r, b.adj)
		b.off = append(b.off, int64(len(b.adj)-a0))
	}
	carry(0, true)
	return chunk{
		ids: b.ids[i0:len(b.ids):len(b.ids)],
		off: b.off[o0:len(b.off):len(b.off)],
		adj: b.adj[a0:len(b.adj):len(b.adj)],
	}
}

// editRows copies the CSR rows (off, adj) into fresh arrays of rows rows
// and nnz entries, with the rows of x rewritten. Every other row is
// copied as part of a span between rewritten rows, its offset shifted;
// rows past the input's end are empty unless rewritten.
func editRows(off []int64, adj []uint32, rows int, nnz int64, x *edits) ([]int64, []uint32) {
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
	for _, c := range x.chunks {
		if c == nil {
			continue
		}
		for i, r := range c.ids {
			span(int(r))
			newAdj = append(newAdj, c.adj[c.off[i]:c.off[i+1]]...)
			newOff[r+1] = int64(len(newAdj))
			next = int(r) + 1
		}
	}
	span(rows)
	return newOff, newAdj
}
