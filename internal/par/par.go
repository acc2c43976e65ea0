// Package par provides the parallel execution runtime used by the
// s-line graph algorithms: worker pools over index ranges with the two
// workload-distribution strategies studied in the paper (blocked and
// cyclic), granularity (chunk size) control, and per-worker statistics.
//
// It is the Go stand-in for the Intel oneTBB parallel_for construct with
// blocked_range and the paper's custom cyclic range (§III-F of the
// paper). Blocked ranges are scheduled dynamically: workers repeatedly
// claim the next contiguous chunk of Grain indices with an atomic
// fetch-and-add, which gives the same load-balancing effect as oneTBB's
// work stealing for straggler chunks. Cyclic ranges are static: worker w
// of W processes indices w, w+W, w+2W, ... exactly as described in the
// paper.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Strategy selects how loop iterations are distributed among workers.
type Strategy uint8

const (
	// Blocked assigns contiguous chunks of Grain iterations to
	// workers, claimed dynamically (first idle worker takes the next
	// chunk). This is the "B" configurations of Table III.
	Blocked Strategy = iota
	// Cyclic assigns iteration i to worker i%Workers statically. This
	// is the "C" configurations of Table III.
	Cyclic
)

// String returns the one-letter notation used in the paper's Table III.
func (s Strategy) String() string {
	switch s {
	case Blocked:
		return "B"
	case Cyclic:
		return "C"
	default:
		return "?"
	}
}

// DefaultGrain is the default chunk size for Blocked scheduling. The
// paper observes chunk sizes up to 256 perform similarly and larger
// chunks hurt load balance (§III-F "Granularity Control").
const DefaultGrain = 64

// Options configures a parallel loop.
type Options struct {
	// Workers is the number of concurrent workers. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Grain is the chunk size for Blocked scheduling. 0 means
	// DefaultGrain. Cyclic scheduling ignores Grain.
	Grain int
	// Strategy selects Blocked or Cyclic distribution.
	Strategy Strategy
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers returns the worker count a loop with these options
// will use before clamping to the iteration count: Workers, or
// GOMAXPROCS when unset. Useful for sizing per-worker state.
func (o Options) EffectiveWorkers() int { return o.workers() }

func (o Options) grain() int {
	if o.Grain > 0 {
		return o.Grain
	}
	return DefaultGrain
}

// For executes fn(worker, i) for every i in [0, n). Each invocation
// carries the worker index (0 ≤ worker < effective Workers) so callers
// can maintain per-worker (thread-local) state without synchronization,
// mirroring the paper's thread-local hashmaps and edge lists.
//
// For blocks until all iterations complete.
func For(n int, opt Options, fn func(worker, i int)) {
	ForChunks(n, opt, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(worker, i)
		}
	})
}

// ForChunks executes fn(worker, lo, hi) over disjoint sub-ranges that
// exactly cover [0, n). Under Blocked scheduling the sub-ranges are
// contiguous chunks of Grain indices claimed dynamically. Under Cyclic
// scheduling each worker receives single-index ranges i, i+W, i+2W, ...;
// fn is invoked with hi = lo+1.
func ForChunks(n int, opt Options, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := opt.workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, 0, n)
		return
	}
	switch opt.Strategy {
	case Cyclic:
		cyclicFor(n, w, fn)
	default:
		blockedFor(n, w, opt.grain(), fn)
	}
}

func blockedFor(n, workers, grain int, fn func(worker, lo, hi int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(worker int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(worker, lo, hi)
			}
		}(wk)
	}
	wg.Wait()
}

func cyclicFor(n, workers int, fn func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(worker int) {
			defer wg.Done()
			for i := worker; i < n; i += workers {
				fn(worker, i, i+1)
			}
		}(wk)
	}
	wg.Wait()
}

// WorkerStats accumulates one counter per worker without
// synchronization; each worker may only touch its own slot. Slots are
// padded to independent cache lines to avoid false sharing in hot inner
// loops (the visit counters of Fig. 10 are bumped per wedge).
type WorkerStats struct {
	slots []paddedInt64
}

type paddedInt64 struct {
	v int64
	_ [56]byte
}

// NewWorkerStats returns stats sized for the given worker count (0
// means GOMAXPROCS).
func NewWorkerStats(workers int) *WorkerStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &WorkerStats{slots: make([]paddedInt64, workers)}
}

// Add adds delta to worker's counter.
func (s *WorkerStats) Add(worker int, delta int64) {
	s.slots[worker].v += delta
}

// Total returns the sum over all workers.
func (s *WorkerStats) Total() int64 {
	var t int64
	for i := range s.slots {
		t += s.slots[i].v
	}
	return t
}
