package par

import (
	"slices"
	"sort"
)

// serialSortCutoff is the size below which Sort falls back to a plain
// single-threaded pdqsort: goroutine + merge overhead only pays off on
// larger inputs.
const serialSortCutoff = 1 << 13

// Sort sorts data in place by less using a parallel samplesort: the
// slice is split into one run per worker, runs are sorted concurrently,
// and the sorted runs are merged with MergeSortedInto. Equal elements
// may be reordered (the sort is not stable).
func Sort[T any](data []T, less func(a, b T) bool, opt Options) {
	n := len(data)
	w := opt.workers()
	if w > n/serialSortCutoff {
		w = n / serialSortCutoff
	}
	if w <= 1 {
		slices.SortFunc(data, cmpFromLess(less))
		return
	}
	runs := make([][]T, w)
	for i := range runs {
		lo, hi := i*n/w, (i+1)*n/w
		runs[i] = data[lo:hi]
	}
	For(w, Options{Workers: w, Grain: 1, Strategy: opt.Strategy}, func(_, i int) {
		slices.SortFunc(runs[i], cmpFromLess(less))
	})
	scratch := make([]T, n)
	MergeSortedInto(scratch, runs, less, opt)
	copy(data, scratch)
}

func cmpFromLess[T any](less func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	}
}

// MergeSortedInto merges k individually sorted lists into dst, which
// must have length equal to the total input length. The output key
// range is partitioned by sampled pivots and the partitions are merged
// concurrently, so the merge scales with workers while each partition
// is written with a cache-friendly sequential k-way galloping merge.
func MergeSortedInto[T any](dst []T, lists [][]T, less func(a, b T) bool, opt Options) {
	active := lists[:0:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			active = append(active, l)
			total += len(l)
		}
	}
	if total != len(dst) {
		panic("par: MergeSortedInto dst length mismatch")
	}
	if len(active) == 0 {
		return
	}
	if len(active) == 1 {
		copy(dst, active[0])
		return
	}
	w := opt.workers()
	if w > 1+total/serialSortCutoff {
		w = 1 + total/serialSortCutoff
	}
	if w <= 1 {
		kwayMerge(dst, active, less)
		return
	}

	pivots := samplePivots(active, less, w-1)
	parts := len(pivots) + 1
	// bounds[l] holds the partition boundaries of list l:
	// bounds[l][p] .. bounds[l][p+1] is the slab of list l that belongs
	// to output partition p (elements < pivots[p], ≥ pivots[p-1]).
	bounds := make([][]int, len(active))
	for l, list := range active {
		b := make([]int, parts+1)
		for p, pv := range pivots {
			b[p+1] = sort.Search(len(list), func(i int) bool { return !less(list[i], pv) })
		}
		b[parts] = len(list)
		bounds[l] = b
	}
	offs := make([]int, parts+1)
	for p := 0; p < parts; p++ {
		size := 0
		for l := range active {
			size += bounds[l][p+1] - bounds[l][p]
		}
		offs[p+1] = offs[p] + size
	}
	For(parts, Options{Workers: w, Grain: 1}, func(_, p int) {
		slabs := make([][]T, 0, len(active))
		for l, list := range active {
			if lo, hi := bounds[l][p], bounds[l][p+1]; lo < hi {
				slabs = append(slabs, list[lo:hi])
			}
		}
		kwayMerge(dst[offs[p]:offs[p+1]], slabs, less)
	})
}

// samplePivots picks up to want pivot values by sampling each sorted
// list at evenly spaced positions and selecting evenly spaced order
// statistics of the combined sample.
func samplePivots[T any](lists [][]T, less func(a, b T) bool, want int) []T {
	const perList = 16
	var samples []T
	for _, l := range lists {
		step := len(l)/perList + 1
		for i := step / 2; i < len(l); i += step {
			samples = append(samples, l[i])
		}
	}
	slices.SortFunc(samples, cmpFromLess(less))
	if want > len(samples) {
		want = len(samples)
	}
	pivots := make([]T, 0, want)
	for p := 1; p <= want; p++ {
		pv := samples[p*len(samples)/(want+1)]
		// Skip duplicate pivots, which would create empty partitions.
		if len(pivots) == 0 || less(pivots[len(pivots)-1], pv) {
			pivots = append(pivots, pv)
		}
	}
	return pivots
}

// kwayMerge sequentially merges sorted slabs into dst (len(dst) must be
// the total slab length). It gallops: it finds the slab with the
// smallest head, then bulk-copies that slab's run of elements smaller
// than every other head — one comparison per element in the common case
// of long single-source runs (per-worker edge lists interleave in
// grain-sized blocks of the hyperedge ID space).
func kwayMerge[T any](dst []T, slabs [][]T, less func(a, b T) bool) {
	live := make([][]T, 0, len(slabs))
	for _, s := range slabs {
		if len(s) > 0 {
			live = append(live, s)
		}
	}
	pos := 0
	for len(live) > 1 {
		// Find the slab with the minimum head and the second-smallest
		// head value.
		min := 0
		for l := 1; l < len(live); l++ {
			if less(live[l][0], live[min][0]) {
				min = l
			}
		}
		second := -1
		for l := 0; l < len(live); l++ {
			if l == min {
				continue
			}
			if second < 0 || less(live[l][0], live[second][0]) {
				second = l
			}
		}
		bound := live[second][0]
		src := live[min]
		// The head is ≤ every other head; copy it and keep copying
		// while strictly below the second-smallest head.
		run := 1
		for run < len(src) && less(src[run], bound) {
			run++
		}
		pos += copy(dst[pos:], src[:run])
		if run == len(src) {
			live[min] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			live[min] = src[run:]
		}
	}
	if len(live) == 1 {
		copy(dst[pos:], live[0])
	}
}

// PrefixSum replaces xs in place with its exclusive prefix sum and
// returns the total: xs[i] becomes xs[0]+...+xs[i-1]. The scan runs as
// the textbook two-pass parallel algorithm (per-block sums, serial scan
// of the block sums, parallel block rewrite).
func PrefixSum(xs []int64, opt Options) int64 {
	n := len(xs)
	w := opt.workers()
	if w > n/serialSortCutoff {
		w = n / serialSortCutoff
	}
	if w <= 1 {
		var sum int64
		for i, x := range xs {
			xs[i] = sum
			sum += x
		}
		return sum
	}
	blockSums := make([]int64, w)
	For(w, Options{Workers: w, Grain: 1}, func(_, b int) {
		var sum int64
		for _, x := range xs[b*n/w : (b+1)*n/w] {
			sum += x
		}
		blockSums[b] = sum
	})
	var total int64
	for b, s := range blockSums {
		blockSums[b] = total
		total += s
	}
	For(w, Options{Workers: w, Grain: 1}, func(_, b int) {
		sum := blockSums[b]
		block := xs[b*n/w : (b+1)*n/w]
		for i, x := range block {
			block[i] = sum
			sum += x
		}
	})
	return total
}

// Reduce runs fn(worker, i) over [0, n), combining results with the
// associative combine function; zero is the identity value. Per-worker
// partials are combined in worker order, so the result is deterministic
// whenever combine is commutative and associative. Each chunk folds
// into a local accumulator and writes its partial slot once per chunk,
// keeping false sharing on the (unpadded, generic) partial slice off
// the per-item path.
func Reduce[T any](n int, opt Options, zero T, fn func(worker, i int) T, combine func(a, b T) T) T {
	w := opt.workers()
	partial := make([]T, w)
	for i := range partial {
		partial[i] = zero
	}
	ForChunks(n, opt, func(worker, lo, hi int) {
		acc := partial[worker]
		for i := lo; i < hi; i++ {
			acc = combine(acc, fn(worker, i))
		}
		partial[worker] = acc
	})
	acc := zero
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc
}
