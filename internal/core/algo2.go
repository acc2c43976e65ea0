package core

import (
	"context"
	"math/bits"
	"runtime"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// SLineEdges computes the edge list of the s-line graph Ls(H): one edge
// {ei, ej} for every pair of hyperedges with inc(ei, ej) = |ei ∩ ej| ≥ s,
// weighted by the overlap. The strategy (planner-chosen for AlgoAuto),
// workload distribution and heuristics are selected by cfg; hyperedge
// IDs are used as given (apply hg.Preprocess or run the Pipeline for
// relabel-by-degree).
//
// s must be ≥ 1. The returned edge list is sorted by (U, V), deduped
// with U < V, and is deterministic for a given hypergraph regardless of
// cfg — it satisfies graph.BuildSorted's input contract. A cancelled
// ctx aborts cooperatively with ctx.Err(); a nil ctx means
// context.Background().
func SLineEdges(ctx context.Context, h *hg.Hypergraph, s int, cfg Config) ([]Edge, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s < 1 {
		s = 1
	}
	dec := planFor(h, []int{s}, cfg)
	lists, stats, err := dec.Strategy.Edges(ctx, h, []int{s}, dec.Config)
	if err != nil {
		return nil, stats, err
	}
	return lists[s], stats, nil
}

func numWorkers(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// cacheLinePad keeps per-worker state that is written every outer
// iteration off the 64-byte lines of its neighbours in a []T: without
// it, worker i's last fields and worker i+1's first share a line, and
// every iteration's writes bounce it between cores (false sharing).
type cacheLinePad [64]byte

// outerWorker is the thread-local state the outer loops of Algorithms 1
// and 2 share: the wedge runs of the iteration in flight, the segment it
// emits, and the block the worker's finished segments are stored in.
// Every iteration writes runs, seg, block and the tallies, so the fields
// sit between pads (§III-F: workers never contend).
type outerWorker struct {
	_      cacheLinePad
	runs   [][]uint32 // this iteration's non-empty upper-triangle runs
	seg    []Edge     // this iteration's emission, V-sorted when handed to put
	block  []Edge     // the output block being filled; block[len:] is free
	wedges int64
	pruned int64
	stop   *stopFlag
	_      cacheLinePad
}

// newOuterWorkers returns one outerWorker per worker, all polling stop.
func newOuterWorkers(workers int, stop *stopFlag) []outerWorker {
	ws := make([]outerWorker, workers)
	for i := range ws {
		ws[i].stop = stop
	}
	return ws
}

// gather collects, for every vertex of ei, the run of incident
// hyperedges ej > ei into st.runs and returns the iteration's exact
// wedge count — known before a single counter is touched, which is what
// lets the counting pass pick its regime up front. pos is h's position
// array (hg.Hypergraph.Positions), so each run — the "(i < j)"
// upper-triangle rule that traverses each wedge (ei, vk, ej) exactly
// once — is a slice taken by index, with no search.
func (st *outerWorker) gather(h *hg.Hypergraph, pos []uint32, ei uint32) int {
	eOff, eAdj, vOff, vAdj := h.CSR()
	lo, hi := eOff[ei], eOff[ei+1]
	verts, at := eAdj[lo:hi], pos[lo:hi]
	at = at[:len(verts)]
	runs, wedges := st.runs[:0], 0
	for k, vk := range verts {
		if run := vAdj[vOff[vk]+int64(at[k])+1 : vOff[vk+1]]; len(run) > 0 {
			runs = append(runs, run)
			wedges += len(run)
		}
	}
	st.runs = runs
	return wedges
}

// iterFunc processes one outer iteration from the gathered st.runs: it
// leaves the iteration's edges in st.seg, sorted by V, and reports
// false when it stopped on a cancellation (st.seg is then discarded).
type iterFunc func(worker int, st *outerWorker, ei uint32, wedges int) bool

// allPruned reports whether degree-based pruning skips every hyperedge
// (no hyperedge has s vertices), with the stats of that empty run, so
// callers return before allocating any per-worker state.
func allPruned(h *hg.Hypergraph, s int, cfg Config) (Stats, bool) {
	if cfg.DisablePruning || s <= h.MaxEdgeSize() {
		return Stats{}, false
	}
	return Stats{Pruned: int64(h.NumEdges()), WedgesPerWorker: make([]int64, numWorkers(cfg))}, true
}

// outerLoop is what Algorithms 1 and 2 have in common: distribute the
// hyperedges over the workers, prune, gather each survivor's wedge runs,
// hand them to iter, store the emitted segment, and concatenate the
// segments by hyperedge. blockCap 0 means edgeBlockCap. It fails,
// before any iteration, when h's orientations disagree (see
// hg.Hypergraph.Positions).
//
// Cancellation is polled here once per outer iteration and by iter once
// per run (Algorithm 2 also per denseStopChunk endpoints); state
// left dirty by an aborted iteration is never read again because every
// later iteration sees the tripped flag too.
func outerLoop(ctx context.Context, h *hg.Hypergraph, s int, cfg Config, blockCap int, iter iterFunc) ([]Edge, Stats, error) {
	m := h.NumEdges()
	if blockCap == 0 {
		blockCap = edgeBlockCap
	}
	pos, err := h.Positions()
	if err != nil {
		return nil, Stats{}, err
	}
	workers := newOuterWorkers(numWorkers(cfg), watchContext(ctx))
	segs := make([][]Edge, m) // segs[ei] is written by the one worker that owns ei

	par.For(m, cfg.parOptions(), func(worker, i int) {
		st := &workers[worker]
		if st.stop.Stop() {
			return
		}
		ei := uint32(i)
		if !cfg.DisablePruning && h.EdgeSize(ei) < s {
			st.pruned++
			return
		}
		wedges := st.gather(h, pos, ei)
		st.wedges += int64(wedges)
		st.seg = st.seg[:0]
		if wedges > 0 && iter(worker, st, ei, wedges) {
			segs[ei] = st.put(blockCap)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	stats := Stats{WedgesPerWorker: make([]int64, len(workers))}
	for i := range workers {
		stats.Wedges += workers[i].wedges
		stats.WedgesPerWorker[i] = workers[i].wedges
		stats.Pruned += workers[i].pruned
	}
	edges := concatSegments(segs, cfg.parOptions())
	stats.Edges = int64(len(edges))
	return edges, stats, nil
}

// stage3Tune lets tests force either side of the two derived constants
// of the counting pass; the zero value is what every caller runs with.
type stage3Tune struct {
	regime   int8 // 0: by denseRatio; > 0: every iteration dense; < 0: every iteration sparse
	blockCap int  // 0: edgeBlockCap
}

// hashmapEdges is Algorithm 2 of the paper: for each hyperedge ei the
// overlaps with all 2-hop neighbor hyperedges ej > ei are accumulated in
// a counter keyed by ej; pairs reaching s are emitted immediately. No
// set intersection is ever performed.
func hashmapEdges(ctx context.Context, h *hg.Hypergraph, s int, cfg Config) ([]Edge, Stats, error) {
	return hashmapRun(ctx, h, s, cfg, stage3Tune{})
}

func hashmapRun(ctx context.Context, h *hg.Hypergraph, s int, cfg Config, tune stage3Tune) ([]Edge, Stats, error) {
	if stats, ok := allPruned(h, s, cfg); ok {
		return nil, stats, nil
	}
	m := h.NumEdges()
	counters := newPlainCounters(numWorkers(cfg), m)
	return outerLoop(ctx, h, s, cfg, tune.blockCap, func(worker int, st *outerWorker, ei uint32, wedges int) bool {
		return hashmapIterDense(&counters[worker], st, ei, s, tune.dense(wedges, m-int(ei)-1))
	})
}

// denseStopChunk bounds how many wedge endpoints (and, at emission, how
// many counter slots) Algorithm 2 processes between stop-flag
// polls. Heavy-tailed inputs have single neighbor runs of hundreds of
// thousands of cache-missing increments; polling only per run would
// make the cancellation latency proportional to the largest vertex
// degree.
const denseStopChunk = 8192

// denseRatio decides an iteration's regime from its wedge count, before
// counting: with at least one wedge per denseRatio slots of the counter
// tail (ei, m) the iteration is dense — bare increments, then one
// sequential scan of the tail, whose output is already V-sorted —
// otherwise sparse — increments that also set a mark bit, then a walk
// of the marked slots in ascending ID. The scan reads a slot for about
// a quarter of what a marked and revisited touch costs.
const denseRatio = 4

func (t stage3Tune) dense(wedges, tail int) bool {
	if t.regime != 0 {
		return t.regime > 0
	}
	return wedges*denseRatio >= tail
}

// plainCounters is one worker's pre-allocated thread-local counters
// (§III-F), the only counter store: counts[ej] is the overlap
// accumulated for (ei, ej) in the iteration in flight and is zero for
// every ej between iterations — each iteration resets exactly what it
// may have touched. A uint32 count cannot overflow (an overlap
// is at most a hyperedge size). The sparse regime also keeps a
// two-level touched bitmap: bit ej of marks is set when counts[ej] is
// bumped, and bit w of summary when marks[w] gains a bit, so the walk
// finds every touched slot in ascending ID while skipping 4096 untouched
// slots per clear summary bit. Both are all zero between iterations.
type plainCounters struct {
	counts  []uint32
	marks   []uint64 // one bit per hyperedge
	summary []uint64 // one bit per marks word
}

func newPlainCounters(workers, m int) []plainCounters {
	cs := make([]plainCounters, workers)
	words := (m + 63) >> 6
	for i := range cs {
		cs[i] = plainCounters{
			counts:  make([]uint32, m),
			marks:   make([]uint64, words),
			summary: make([]uint64, (words+63)>>6),
		}
	}
	return cs
}

// count adds the wedge endpoints of runs to the counters, polling stop
// once per run and once per denseStopChunk endpoints within a run. The
// sparse regime also marks each endpoint; ok is false when the count
// stopped early.
func (c *plainCounters) count(runs [][]uint32, dense bool, stop *stopFlag) (ok bool) {
	for _, run := range runs {
		for len(run) > 0 {
			if stop.Stop() {
				return false
			}
			chunk := run[:min(len(run), denseStopChunk)]
			run = run[len(chunk):]
			if dense {
				bump(c.counts, chunk)
			} else {
				bumpMarked(c.counts, c.marks, c.summary, chunk)
			}
		}
	}
	return true
}

// bump is the dense regime's inner loop, kept out of line: inlined into
// count, the register allocator spills its loop index on every wedge.
//
//go:noinline
func bump(counts, chunk []uint32) {
	for _, ej := range chunk {
		counts[ej]++
	}
}

// bumpMarked is the sparse regime's inner loop: it counts the endpoint
// and sets its mark and summary bits unconditionally, so the
// unpredictable "seen before?" outcome is never a branch.
//
//go:noinline
func bumpMarked(counts []uint32, marks, summary []uint64, chunk []uint32) {
	for _, ej := range chunk {
		counts[ej]++
		marks[ej>>6] |= 1 << (ej & 63)
		summary[ej>>12] |= 1 << ((ej >> 6) & 63)
	}
}

// hashmapIterDense processes one hyperedge with the pre-allocated dense
// counters (TLS mode) in the given regime: count the gathered runs, emit
// every count ≥ s into st.seg in ascending ej, and zero what was counted.
func hashmapIterDense(c *plainCounters, st *outerWorker, ei uint32, s int, dense bool) bool {
	if !c.count(st.runs, dense, st.stop) {
		return false
	}
	if !dense {
		return c.emitMarked(st, ei, s)
	}
	seg := st.seg
	// Slots ≤ ei are never touched (upper-triangle rule), so the scan
	// and the reset cover the tail only.
	first := ei + 1
	tail := c.counts[first:]
	for lo := 0; lo < len(tail); lo += denseStopChunk {
		if st.stop.Stop() {
			return false
		}
		for j, n := range tail[lo:min(lo+denseStopChunk, len(tail))] {
			if int(n) >= s {
				seg = append(seg, Edge{U: ei, V: first + uint32(lo+j), W: n})
			}
		}
	}
	clear(tail)
	st.seg = seg
	return true
}

// emitMarked is the sparse regime's emission: it walks the summary
// words covering (ei, hi], where hi is the iteration's highest touched
// ID, and within each set summary bit the marks word it names, so the
// counts come out in ascending ej with no sort. Every count, mark and
// summary word it visits is zeroed. Stop is polled once per summary
// word, that is once per 4096 counter slots at most.
func (c *plainCounters) emitMarked(st *outerWorker, ei uint32, s int) bool {
	// Runs are sorted suffixes: the highest touched ID is the largest
	// last element.
	var hi uint32
	for _, run := range st.runs {
		hi = max(hi, run[len(run)-1])
	}
	seg := st.seg
	for sw := (ei + 1) >> 12; sw <= hi>>12; sw++ {
		if st.stop.Stop() {
			return false
		}
		sbits := c.summary[sw]
		c.summary[sw] = 0
		for sbits != 0 {
			mw := sw<<6 | uint32(bits.TrailingZeros64(sbits))
			sbits &= sbits - 1
			mbits := c.marks[mw]
			c.marks[mw] = 0
			for mbits != 0 {
				ej := mw<<6 | uint32(bits.TrailingZeros64(mbits))
				mbits &= mbits - 1
				n := c.counts[ej]
				c.counts[ej] = 0
				if int(n) >= s {
					seg = append(seg, Edge{U: ei, V: ej, W: n})
				}
			}
		}
	}
	st.seg = seg
	return true
}
