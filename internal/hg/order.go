package hg

import (
	"cmp"
	"slices"
	"sync"
)

// This file is Stage 1's working order read off a version without
// building it or scanning its rows: WorkID ranks one hyperedge, and a
// Reorder carries every working ID of one version to the next.
//
// A version's working order is that of its base with the rows rewritten
// since the base moved: an emptied row leaves, an appended one enters.
// WorkID therefore reads two things. Of the base, an index built once
// per base and orientation, the first time any version composed on that
// base asks (baseIndex). Of the edits, under RelabelNone the emptiness
// changes they carry, counted per chunk when the chunk is made
// (chunk.flips) and summed over the chunk table when the table is
// copied (edits.flipBefore); under a by-degree order the keys of the
// rewritten rows, kept in sorted runs as each edit is made (keyRuns).

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

	sizeOnce sync.Once
	// ascending is EdgeOrder(base, RelabelAscending): the non-empty rows
	// by size, each size class in ID order. atMost[k] is the number of
	// non-empty rows of size at most k, so class k is
	// ascending[atMost[k-1]:atMost[k]].
	ascending []uint32
	atMost    []int
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

// before returns the number of non-empty rows of the base whose key
// under a by-degree order (size, then ID) is below that of a row of
// the given size and ID.
func (x *rowIndex) before(h Rows, desc bool, size int, id uint32) int {
	x.sizeOnce.Do(func() {
		x.ascending = EdgeOrder(h, RelabelAscending)
		top := 0
		if len(x.ascending) > 0 {
			top = h.EdgeSize(x.ascending[len(x.ascending)-1])
		}
		x.atMost = make([]int, top+1)
		for _, e := range x.ascending {
			x.atMost[h.EdgeSize(e)]++
		}
		for k := 1; k <= top; k++ {
			x.atMost[k] += x.atMost[k-1]
		}
	})
	atMost := func(k int) int { return x.atMost[min(k, len(x.atMost)-1)] }
	lo, hi := atMost(size-1), atMost(size)
	rank, _ := slices.BinarySearch(x.ascending[lo:hi], id)
	if desc {
		return len(x.ascending) - hi + rank
	}
	return lo + rank
}

// index returns the base index of v's hyperedge orientation.
func (v *Version) index() *rowIndex {
	if v.dual {
		return &v.idx.side[1]
	}
	return &v.idx.side[0]
}

// WorkID returns the working ID Stage 1 gives the non-empty hyperedge e
// of v under order — its index in EdgeOrder(v, order) — without
// building v or scanning its rows. Under RelabelNone it costs a block
// of the base index and a chunk of v's edits; under a by-degree order,
// binary searches of the base index and of v's rewritten keys. order
// must be resolved.
func (v *Version) WorkID(e uint32, order RelabelOrder) int {
	if order == RelabelAscending || order == RelabelDescending {
		return v.workByDegree(e, order == RelabelDescending)
	}
	off := v.base.eOff
	bm := v.base.numEdges
	empty := v.index().empties(off, min(int(e), bm)) + max(0, int(e)-bm)
	return int(e) - empty - v.edge.flipsBelow(e, off)
}

// workByDegree is WorkID under a by-degree order: the base's non-empty
// rows with a lower key, plus how many more of the rewritten rows have a
// lower key now than in the base.
func (v *Version) workByDegree(e uint32, desc bool) int {
	size := v.EdgeSize(e)
	return v.index().before(v.base, desc, size, e) + v.edge.runs.below(desc, size, e)
}

// sizeKey is a row's key under a by-degree order.
type sizeKey struct {
	size int
	id   uint32
}

// cmpKey orders keys by size, then ID.
func cmpKey(a, b sizeKey) int {
	if a.size != b.size {
		return cmp.Compare(a.size, b.size)
	}
	return cmp.Compare(a.id, b.id)
}

// signedKey is one row rewrite's change to the by-degree keys: +1 for
// the key the row has after it, −1 for the key it had before.
type signedKey struct {
	sizeKey
	sign int32
}

// keyRun is a sorted list of signed keys; sum[i] adds the signs of
// keys[:i]. A run is immutable once made.
type keyRun struct {
	keys []signedKey
	sum  []int32
}

// keyRuns holds every rewrite an edits set made since its base as
// signed keys, empty rows left out. Per row the signs telescope, so the
// signed count of keys below a key is how many more rewritten rows order
// below it now than in the base. The runs are merged like a binary
// counter, each less than half the one before it: an edit of k rows
// adds a run of its k changes, shares every earlier run with the version
// it edits, and costs O(k log P) amortized for the P rewrites since the
// base; a count costs a binary search per run, O(log² P).
type keyRuns []*keyRun

// cmpSigned orders signed keys by key.
func cmpSigned(a, b signedKey) int { return cmpKey(a.sizeKey, b.sizeKey) }

// push returns rs with a run of keys added, merging tail runs until each
// is more than twice the next; rs itself is left as it was.
func (rs keyRuns) push(keys []signedKey) keyRuns {
	if len(keys) == 0 {
		return rs
	}
	slices.SortFunc(keys, cmpSigned)
	out := append(make(keyRuns, 0, len(rs)+1), rs...)
	for len(out) > 0 && len(out[len(out)-1].keys) <= 2*len(keys) {
		keys = mergeKeys(out[len(out)-1].keys, keys)
		out = out[:len(out)-1]
	}
	r := &keyRun{keys: keys, sum: make([]int32, len(keys)+1)}
	for i, k := range keys {
		r.sum[i+1] = r.sum[i] + k.sign
	}
	return append(out, r)
}

// mergeKeys merges two sorted lists of signed keys into a fresh one.
func mergeKeys(a, b []signedKey) []signedKey {
	out := make([]signedKey, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if cmpSigned(a[0], b[0]) <= 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// below returns the signed count of rs's keys that order below a row of
// the given size and ID under a by-degree order (size descending when
// desc, then ID).
func (rs keyRuns) below(desc bool, size int, id uint32) int {
	n := 0
	for _, r := range rs {
		at := func(k sizeKey) int32 {
			i, _ := slices.BinarySearchFunc(r.keys, k, func(a signedKey, b sizeKey) int { return cmpKey(a.sizeKey, b) })
			return r.sum[i]
		}
		if desc {
			n += int(r.sum[len(r.keys)] - at(sizeKey{size + 1, 0}) + at(sizeKey{size, id}) - at(sizeKey{size, 0}))
		} else {
			n += int(at(sizeKey{size, id}))
		}
	}
	return n
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

// Reorder is how a delta moves one orientation's working order when the
// rows that stay non-empty keep their relative order (the hyperedges
// under any relabel, whose sizes a delta never changes, and the
// vertices unrelabeled): Gone lists the old working IDs whose rows
// emptied, Enter the new working IDs of the rows that became non-empty,
// both ascending. The k-th surviving row in old order is the k-th in
// new order, and survivors fill the new working IDs Enter leaves free.
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
