package hg

import (
	"slices"
	"sync"
)

// This file is Stage 1's working order under RelabelNone read off a
// version without building it or scanning its rows: WorkID ranks one
// hyperedge, and a Reorder carries every working ID of one version to
// the next. (The by-degree orders are derived from scratch by EdgeOrder;
// the incremental patcher patches only keys under RelabelNone.)
//
// A version's working order is that of its base with the rows rewritten
// since the base moved: an emptied row leaves, an appended one enters.
// WorkID therefore reads two things. Of the base, an index built once
// per base and orientation, the first time any version composed on that
// base asks (baseIndex). Of the edits, the emptiness changes they
// carry, counted per chunk when the chunk is made (chunk.flips) and
// summed over the chunk table when the table is copied
// (edits.flipBefore).

// baseIndex is what the working orders of the versions composed on one
// base read of it, per orientation: side[0] indexes the hyperedge rows
// of the primal base, side[1] its vertex rows (the dual view's
// hyperedges). It is shared by those versions and their dual views.
type baseIndex struct {
	side [2]rowIndex
}

// rowIndex indexes the rows of one orientation of a base.
type rowIndex struct {
	emptyOnce sync.Once
	// emptyBefore[b] is the number of empty rows among the first
	// b<<indexShift rows; nil when the base has none.
	emptyBefore []int
}

// indexShift sizes the blocks of rowIndex.emptyBefore: 256 rows.
const indexShift = 8

// rowLen returns the length of row r of the CSR offsets off; rows past
// the end are empty.
func rowLen(off []int64, r uint32) int {
	if int(r)+1 < len(off) {
		return int(off[r+1] - off[r])
	}
	return 0
}

// empties returns the number of empty rows among the first r rows of
// the CSR offsets off, which x indexes.
func (x *rowIndex) empties(off []int64, r int) int {
	x.emptyOnce.Do(func() {
		const mask = 1<<indexShift - 1
		rows := len(off) - 1
		before := make([]int, rows>>indexShift+1)
		n := 0
		for q := 0; q < rows; q++ {
			if q&mask == 0 {
				before[q>>indexShift] = n
			}
			if off[q+1] == off[q] {
				n++
			}
		}
		if rows&mask == 0 {
			before[rows>>indexShift] = n
		}
		if n > 0 {
			x.emptyBefore = before
		}
	})
	if x.emptyBefore == nil {
		return 0
	}
	b := r >> indexShift
	n := x.emptyBefore[b]
	for q := b << indexShift; q < r; q++ {
		if off[q+1] == off[q] {
			n++
		}
	}
	return n
}

// index returns the base index of v's hyperedge orientation.
func (v *Version) index() *rowIndex {
	if v.dual {
		return &v.idx.side[1]
	}
	return &v.idx.side[0]
}

// WorkID returns the working ID Stage 1 gives the non-empty hyperedge e
// of v under RelabelNone — its index in EdgeOrder(v, RelabelNone) —
// without building v or scanning its rows: a block of the base index
// and a chunk of v's edits.
func (v *Version) WorkID(e uint32) int {
	off := v.base.eOff
	bm := v.base.numEdges
	empty := v.index().empties(off, min(int(e), bm)) + max(0, int(e)-bm)
	return int(e) - empty - v.edge.flipsBelow(e, off)
}

// noRow is above every row ID.
const noRow = ^uint32(0)

// flipsBelow returns the number of c's rows below below that are empty
// less the number that were empty in the base of offsets off.
func (c *chunk) flipsBelow(off []int64, below uint32) int {
	n := 0
	for i, q := range c.ids {
		if q >= below {
			break
		}
		if c.off[i+1] == c.off[i] {
			n++
		}
		if rowLen(off, q) == 0 {
			n--
		}
	}
	return n
}

// flipsBelow returns the number of rows below r that x empties less the
// number it fills, against the base of offsets off.
func (x *edits) flipsBelow(r uint32, off []int64) int {
	if len(x.chunks) == 0 {
		return 0
	}
	ci := int(r >> x.shift)
	if ci >= len(x.chunks) {
		return x.flipBefore[len(x.chunks)]
	}
	n := x.flipBefore[ci]
	if c := x.chunks[ci]; c != nil {
		n += c.flipsBelow(off, r)
	}
	return n
}

// NoWork marks a row outside the working order: a working ID a Reorder
// drops, or a row Stage 1 drops.
const NoWork = ^uint32(0)

// Reorder is how a delta moves one orientation's working order under
// RelabelNone, where the rows that stay non-empty keep their relative
// order: Gone lists the old working IDs whose rows emptied, Enter the
// new working IDs of the rows that became non-empty, both ascending.
// The k-th surviving row in old order is the k-th in new order, and
// survivors fill the new working IDs Enter leaves free.
type Reorder struct {
	Gone, Enter []uint32
}

// nth returns the k-th ID (from 0) that skip, ascending, does not hold.
func nth(skip []uint32, k uint32) uint32 {
	for _, s := range skip {
		if s > k {
			break
		}
		k++
	}
	return k
}

// below returns how many IDs of the ascending list ids are below w.
func below(ids []uint32, w uint32) uint32 {
	i, _ := slices.BinarySearch(ids, w)
	return uint32(i)
}

// Map returns the new working ID of old working ID w, or NoWork when w's
// row left the order.
func (r *Reorder) Map(w uint32) uint32 {
	if _, gone := slices.BinarySearch(r.Gone, w); gone {
		return NoWork
	}
	return nth(r.Enter, w-below(r.Gone, w))
}

// Back returns the old working ID of the first surviving row whose new
// working ID is w or above: w's own old ID when its row survived, and
// whether its row entered the order.
func (r *Reorder) Back(w uint32) (old uint32, entered bool) {
	_, entered = slices.BinarySearch(r.Enter, w)
	return nth(r.Gone, w-below(r.Enter, w)), entered
}
