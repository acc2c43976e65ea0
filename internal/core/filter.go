package core

import (
	"context"
	"math"

	"hyperline/internal/par"
)

// btoi converts a bool to 0/1. The compiler lowers it to a SETcc, so
// `k += btoi(cond)` is a branch-free conditional advance — the building
// block of the filtration loops, whose pass/fail pattern is
// data-dependent and defeats the branch predictor on weight
// distributions near the s threshold.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// filterChunk is the unit of a filtration's work: each pass covers
// the list in chunks of this many edges, spread over the workers, and
// polls ctx once per chunk — base lists at Fig-8 scale run to tens of
// millions of edges, and an unpolled full pass would make the
// cancellation latency proportional to the list length.
const filterChunk = 1 << 14

// filterEdgesGE returns the weight filtration {e : e.W >= s} of a
// sorted edge list, preserving order (and therefore the BuildSorted
// input contract). Two branch-free passes, each over filterChunk-edge
// chunks in parallel: an exact count per chunk, whose prefix sum places
// every chunk's survivors, then a write-always/advance-conditionally
// fill into an exactly-sized allocation — no append growth, no
// per-element branch inside a chunk, and the same list at any worker
// count. A nil ctx never cancels.
//
// When every edge passes, the input slice itself is returned: ensemble
// filtrations are nested, and pipeline edge lists are immutable by
// convention, so sharing is safe and keeps the common low-s plateau
// allocation-free.
//
// A weight is a uint32 overlap, so nothing passes an s above
// math.MaxUint32.
func filterEdgesGE(ctx context.Context, edges []Edge, s int, opt par.Options) ([]Edge, error) {
	if int64(s) > math.MaxUint32 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s32 := uint32(s)
	chunks := (len(edges) + filterChunk - 1) / filterChunk
	// each runs pass over every chunk, then reports a cancellation.
	each := func(pass func(c int, chunk []Edge)) error {
		par.For(chunks, par.Options{Workers: opt.Workers, Grain: 1}, func(_, c int) {
			if ctx.Err() == nil {
				lo := c * filterChunk
				pass(c, edges[lo:min(lo+filterChunk, len(edges))])
			}
		})
		return ctx.Err()
	}

	// off[c] becomes where chunk c's survivors start; off[chunks] = n.
	off := make([]int64, chunks+1)
	if err := each(func(c int, chunk []Edge) {
		n := 0
		for i := range chunk {
			n += btoi(chunk[i].W >= s32)
		}
		off[c] = int64(n)
	}); err != nil {
		return nil, err
	}
	n := par.PrefixSum(off, opt)
	if n == int64(len(edges)) {
		return edges, nil
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Edge, n)
	if err := each(func(c int, chunk []Edge) {
		// A failing edge lands at out[k] and is overwritten by the
		// chunk's next passing one; the fill stops at the chunk's last
		// survivor, so it never writes into the next chunk's range.
		k, end := off[c], off[c+1]
		for i := 0; i < len(chunk) && k < end; i++ {
			out[k] = chunk[i]
			k += int64(btoi(chunk[i].W >= s32))
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}
