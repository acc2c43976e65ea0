package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// regimeGraph is a generated hypergraph small enough for the quadratic
// oracle whose outer iterations fall on both sides of the dense/sparse
// rule: early hyperedges face a long counter tail, late ones a short
// one, and the communities give some of each enough wedges to be dense.
func regimeGraph() *hg.Hypergraph {
	return gen.Community(gen.CommunityConfig{
		Seed: 23, NumVertices: 300, NumCommunities: 12,
		MeanCommunitySize: 14, EdgesPerCommunity: 12, Background: 160,
	})
}

// regimeSplit counts the iterations the rule sends each way.
func regimeSplit(t *testing.T, h *hg.Hypergraph) (dense, sparse int) {
	pos, err := h.Positions()
	if err != nil {
		t.Fatal(err)
	}
	st := &outerWorker{}
	m := h.NumEdges()
	for ei := 0; ei < m; ei++ {
		wedges := st.gather(h, pos, uint32(ei))
		switch {
		case wedges == 0:
		case (stage3Tune{}).dense(wedges, m-ei-1):
			dense++
		default:
			sparse++
		}
	}
	return dense, sparse
}

// mapIter is Lines 6-12 of Algorithm 2 in the paper's dynamic-allocation
// mode (§III-F): a fresh map per outer iteration. It shares no counting
// code with plainCounters, which makes it the other arm of the §III-F
// ablation (BenchmarkStage3Kernel/map) and a second reference beside
// NaiveAllPairs.
func mapIter(s int) iterFunc {
	return func(_ int, st *outerWorker, ei uint32, _ int) bool {
		overlap := make(map[uint32]uint32)
		for _, run := range st.runs {
			for _, ej := range run {
				overlap[ej]++
			}
		}
		for ej, n := range overlap {
			if int(n) >= s {
				st.seg = append(st.seg, Edge{U: ei, V: ej, W: n})
			}
		}
		sortSegmentByV(st.seg)
		return true
	}
}

type stage3Run func(h *hg.Hypergraph, s int, cfg Config) ([]Edge, Stats, error)

// stage3Runs lists every way the tests drive the outer loop: the rule's
// own regime choice, every iteration forced dense, every iteration
// forced sparse, and mapIter.
func stage3Runs(blockCap int) map[string]stage3Run {
	runs := map[string]stage3Run{
		"map": func(h *hg.Hypergraph, s int, cfg Config) ([]Edge, Stats, error) {
			return outerLoop(context.Background(), h, s, cfg, blockCap, mapIter(s))
		},
	}
	for name, regime := range map[string]int8{"rule": 0, "dense": +1, "sparse": -1} {
		runs[name] = func(h *hg.Hypergraph, s int, cfg Config) ([]Edge, Stats, error) {
			return hashmapRun(context.Background(), h, s, cfg, stage3Tune{regime: regime, blockCap: blockCap})
		}
	}
	return runs
}

// TestRegimeBoundary: the regime is a cost decision, never a semantic
// one — the rule's own choice, every iteration forced dense, every
// iteration forced sparse and the per-iteration map all produce the
// oracle's bytes, at every worker count and under both distributions.
func TestRegimeBoundary(t *testing.T) {
	h := regimeGraph()
	dense, sparse := regimeSplit(t, h)
	if dense < 10 || sparse < 10 {
		t.Fatalf("input does not straddle the rule: %d dense, %d sparse iterations", dense, sparse)
	}
	for _, s := range []int{1, 3} {
		want := NaiveAllPairs(h, s)
		if len(want) == 0 {
			t.Fatalf("s=%d: empty oracle makes the comparison vacuous", s)
		}
		for name, run := range stage3Runs(0) {
			for _, w := range []int{1, 2, 3, 8} {
				for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
					cfg := Config{Workers: w, Partition: strat, Grain: 5}
					got, stats, err := run(h, s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !edgeListsEqual(want, got) {
						t.Fatalf("s=%d %s workers=%d %v: diverges from NaiveAllPairs (%d vs %d edges)",
							s, name, w, strat, len(got), len(want))
					}
					if stats.Edges != int64(len(want)) {
						t.Fatalf("s=%d %s: Stats.Edges = %d, want %d", s, name, stats.Edges, len(want))
					}
				}
			}
		}
	}
}

// TestRegimeWideOverlap: two hyperedges sharing 70 000 vertices overlap
// in exactly 70 000 — past what a 16-bit count could hold, the case the
// deleted wide slot layout existed for.
func TestRegimeWideOverlap(t *testing.T) {
	const shared = 70000
	verts := make([]uint32, shared)
	for i := range verts {
		verts[i] = uint32(i)
	}
	h := hg.FromEdgeSlices([][]uint32{verts, verts}, shared)
	want := []Edge{{U: 0, V: 1, W: shared}}
	for _, regime := range []int8{0, +1, -1} {
		got, stats, err := hashmapRun(context.Background(), h, shared, Config{Workers: 2}, stage3Tune{regime: regime})
		if err != nil {
			t.Fatal(err)
		}
		if !edgeListsEqual(want, got) || stats.Wedges != shared {
			t.Fatalf("regime=%d: got %v with %d wedges, want %v with %d", regime, got, stats.Wedges, want, shared)
		}
		over, _, _ := hashmapRun(context.Background(), h, shared+1, Config{DisablePruning: true}, stage3Tune{regime: regime})
		if len(over) != 0 {
			t.Fatalf("regime=%d: s=%d emitted %v", regime, shared+1, over)
		}
	}
	if got := MaxOverlap(h, Config{Workers: 2}); got != shared {
		t.Fatalf("MaxOverlap = %d, want %d", got, shared)
	}
}

// thresholdGraph is hyperedge p (p = 0 or 1, so that the first tail
// slot ei+1 is odd or even) over vertices 0..s, followed by a tail of
// length hyperedges whose overlaps with it run s-1, s, s+1, s-1, ...
// (each a prefix of p's vertices; an empty prefix gets a private vertex
// instead). For p = 1, hyperedge 0 is a private vertex of its own.
func thresholdGraph(s, p, length int) *hg.Hypergraph {
	private := uint32(s + 1)
	edges := [][]uint32{}
	if p == 1 {
		edges = append(edges, []uint32{private})
		private++
	}
	prefix := func(n int) []uint32 {
		if n <= 0 {
			private++
			return []uint32{private - 1}
		}
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i)
		}
		return out
	}
	edges = append(edges, prefix(s+1))
	for j := 0; j < length; j++ {
		edges = append(edges, prefix(s-1+j%3))
	}
	return hg.FromEdgeSlices(edges, int(private))
}

// TestDenseEmissionAtThreshold: every regime emits exactly the counts
// ≥ s of the counter tail — counts of s-1, s and s+1 side by side, at
// every tail length up to 17 and both parities of the first slot — and
// nothing for an s no overlap reaches, however large (pruning off, so
// such an s reaches the counting pass).
func TestDenseEmissionAtThreshold(t *testing.T) {
	runs := stage3Runs(0)
	for _, s := range []int{1, 2, 8} {
		for p := 0; p <= 1; p++ {
			for length := 0; length <= 17; length++ {
				h := thresholdGraph(s, p, length)
				maxSize := h.MaxEdgeSize()
				for _, sq := range []int{s, maxSize, maxSize + 1, 1 << 31, 1<<32 + 1} {
					want := NaiveAllPairs(h, sq)
					for _, name := range []string{"dense", "sparse", "rule"} {
						for _, w := range []int{1, 2} {
							got, _, err := runs[name](h, sq, Config{Workers: w, DisablePruning: true})
							if err != nil {
								t.Fatal(err)
							}
							if !edgeListsEqual(want, got) {
								t.Fatalf("s=%d p=%d length=%d query s=%d %s workers=%d: got %v, want %v",
									s, p, length, sq, name, w, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestWorkerStatePadded: the fields an outer iteration writes sit at
// least a cache line from either end of outerWorker and worker1, so in
// a []outerWorker or []worker1 no two workers write the same line.
func TestWorkerStatePadded(t *testing.T) {
	const line = 64
	for _, c := range []struct {
		name                    string
		size, first, last, tail uintptr
	}{
		{"outerWorker", unsafe.Sizeof(outerWorker{}), unsafe.Offsetof(outerWorker{}.runs),
			unsafe.Offsetof(outerWorker{}.stop), unsafe.Sizeof(outerWorker{}.stop)},
		{"worker1", unsafe.Sizeof(worker1{}), unsafe.Offsetof(worker1{}.intersections),
			unsafe.Offsetof(worker1{}.stamp), unsafe.Sizeof(worker1{}.stamp)},
	} {
		if after := c.size - (c.last + c.tail); c.first < line || after < line {
			t.Fatalf("%s: %d bytes before the first field and %d after the last, want ≥ %d each",
				c.name, c.first, after, line)
		}
	}
}

// TestBlockRollOver: where a segment lands — the tail of the current
// block, a fresh block, a block made to measure because the segment is
// larger than a whole block — never shows in the output.
func TestBlockRollOver(t *testing.T) {
	h := regimeGraph()
	want := NaiveAllPairs(h, 1)
	longest, run := 0, 0
	for i := range want {
		if i > 0 && want[i].U != want[i-1].U {
			run = 0
		}
		run++
		longest = max(longest, run)
	}
	if longest < 4 {
		t.Fatalf("longest segment is %d edges: too short to roll over mid-block", longest)
	}
	for _, blockCap := range []int{1, 2, longest - 1, longest, 3 * longest} {
		for name, run := range stage3Runs(blockCap) {
			for _, w := range []int{1, 3} {
				got, _, err := run(h, 1, Config{Workers: w, Partition: par.Cyclic})
				if err != nil {
					t.Fatal(err)
				}
				if !edgeListsEqual(want, got) {
					t.Fatalf("blockCap=%d %s workers=%d: diverges from NaiveAllPairs", blockCap, name, w)
				}
			}
		}
	}
}

// bitmapGraph is a generated hypergraph with m = 2·4096 + 65
// hyperedges — three summary words, the last one barely started — of
// one to four uniform random vertices, plus two hub vertices joining
// the hyperedges on either side of every marks-word (64) and
// summary-word (4096) boundary, and the last one. The hubs make every
// pair of those hyperedges overlap by at least 2, so s = 2 crosses the
// boundaries too.
func bitmapGraph() *hg.Hypergraph {
	const m, n = 2*4096 + 65, 20000
	r := rand.New(rand.NewSource(41))
	edges := make([][]uint32, m)
	for e := range edges {
		for k := r.Intn(4); k >= 0; k-- {
			edges[e] = append(edges[e], uint32(r.Intn(n)))
		}
	}
	for _, e := range []int{0, 62, 63, 64, 4095, 4096, 4097, 8191, 8192, m - 1} {
		edges[e] = append(edges[e], n, n+1)
	}
	return hg.FromEdgeSlices(edges, n+2)
}

// TestBitmapBoundaries: the sparse walk finds touched slots on both
// sides of every marks-word and summary-word boundary and in the last,
// partial summary word — forced sparse, forced dense and mapIter agree
// at every worker count, under both distributions.
func TestBitmapBoundaries(t *testing.T) {
	h := bitmapGraph()
	runs := stage3Runs(0)
	for _, s := range []int{1, 2} {
		want, _, err := runs["map"](h, s, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		last := uint32(h.NumEdges() - 1)
		if !slices.ContainsFunc(want, func(e Edge) bool { return e.U == 0 && e.V == last }) {
			t.Fatalf("s=%d: hub pair (0, m-1) missing from the reference: the input does not reach the last word", s)
		}
		for _, name := range []string{"sparse", "dense", "map"} {
			for _, w := range []int{1, 2, 3} {
				for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
					got, _, err := runs[name](h, s, Config{Workers: w, Partition: strat})
					if err != nil {
						t.Fatal(err)
					}
					if !edgeListsEqual(want, got) {
						t.Fatalf("s=%d %s workers=%d %v: diverges from mapIter (%d vs %d edges)",
							s, name, w, strat, len(got), len(want))
					}
				}
			}
		}
	}
}

// denseProbe runs Algorithm 2's outer loop over counters the test can
// inspect afterwards, calling hook (when set) before each iteration.
func denseProbe(ctx context.Context, h *hg.Hypergraph, s int, cfg Config, tune stage3Tune, hook func()) ([]plainCounters, []Edge, error) {
	m := h.NumEdges()
	counters := newPlainCounters(numWorkers(cfg), m)
	edges, _, err := outerLoop(ctx, h, s, cfg, 0, func(worker int, st *outerWorker, ei uint32, wedges int) bool {
		if hook != nil {
			hook()
		}
		return hashmapIterDense(&counters[worker], st, ei, s, tune.dense(wedges, m-int(ei)-1))
	})
	return counters, edges, err
}

// TestSegmentsLeaveCountersZero: each iteration resets exactly what it
// touched, in both regimes, so an uncancelled run hands back all-zero
// counters and an all-zero touched bitmap (marks and summary) — the
// invariant the next iteration's bare increments and the sparse walk,
// which visits only marked slots, both stand on.
func TestSegmentsLeaveCountersZero(t *testing.T) {
	h := regimeGraph()
	want := NaiveAllPairs(h, 2)
	for _, regime := range []int8{0, +1, -1} {
		cfg := Config{Workers: 3, Partition: par.Cyclic}
		counters, got, err := denseProbe(context.Background(), h, 2, cfg, stage3Tune{regime: regime}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !edgeListsEqual(want, got) {
			t.Fatalf("regime=%d: probe run diverges from NaiveAllPairs", regime)
		}
		for w, c := range counters {
			for ej, n := range c.counts {
				if n != 0 {
					t.Fatalf("regime=%d: worker %d left counts[%d] = %d", regime, w, ej, n)
				}
			}
			for i, word := range c.marks {
				if word != 0 {
					t.Fatalf("regime=%d: worker %d left marks[%d] = %#x", regime, w, i, word)
				}
			}
			for i, word := range c.summary {
				if word != 0 {
					t.Fatalf("regime=%d: worker %d left summary[%d] = %#x", regime, w, i, word)
				}
			}
		}
	}
}

// TestSegmentsCancelMidRun cancels from inside the run, at a counted
// iteration rather than after a delay: the run must return
// context.Canceled and no list, and no worker may start more than the
// one iteration it had already polled for.
func TestSegmentsCancelMidRun(t *testing.T) {
	h := regimeGraph()
	const cancelAt = 40
	for _, regime := range []int8{+1, -1} {
		for _, w := range []int{1, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			cfg := Config{Workers: w, Partition: par.Cyclic}
			_, got, err := denseProbe(ctx, h, 1, cfg, stage3Tune{regime: regime}, func() {
				if calls.Add(1) == cancelAt {
					cancel()
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("regime=%d workers=%d: got (%d edges, %v), want (nil, context.Canceled)", regime, w, len(got), err)
			}
			if n := calls.Load(); n < cancelAt || n > cancelAt+int64(w)-1 {
				t.Fatalf("regime=%d workers=%d: %d iterations started, want %d to %d", regime, w, n, cancelAt, cancelAt+w-1)
			}
		}
	}
}

// TestAllPrunedAllocatesNothing: when no hyperedge has s vertices,
// pruning skips all of them, so both algorithms must answer before
// sizing any per-worker state; with pruning disabled the same query
// still walks every wedge and says so.
func TestAllPrunedAllocatesNothing(t *testing.T) {
	h := regimeGraph()
	s := h.MaxEdgeSize() + 1
	_, walked, _ := hashmapEdges(context.Background(), h, 1, Config{Workers: 4})
	for name, run := range map[string]func(context.Context, *hg.Hypergraph, int, Config) ([]Edge, Stats, error){
		"hashmap": hashmapEdges, "set-intersection": setIntersectionEdges,
	} {
		cfg := Config{Workers: 4}
		edges, stats, err := run(context.Background(), h, s, cfg)
		if err != nil || edges != nil {
			t.Fatalf("%s: got (%v, %v), want an empty list", name, edges, err)
		}
		if stats.Pruned != int64(h.NumEdges()) || stats.Wedges != 0 || len(stats.WedgesPerWorker) != 4 {
			t.Fatalf("%s: stats %+v, want all %d hyperedges pruned over 4 workers", name, stats, h.NumEdges())
		}
		// One allocation is Stats.WedgesPerWorker; a run that reached
		// the outer loop would also size counters per worker.
		if allocs := testing.AllocsPerRun(10, func() { run(context.Background(), h, s, cfg) }); allocs > 2 {
			t.Fatalf("%s: %v allocations for a query pruning answers outright", name, allocs)
		}

		cfg.DisablePruning = true
		edges, stats, err = run(context.Background(), h, s, cfg)
		if err != nil || len(edges) != 0 {
			t.Fatalf("%s unpruned: got (%v, %v), want an empty list", name, edges, err)
		}
		if stats.Pruned != 0 || stats.Wedges != walked.Wedges {
			t.Fatalf("%s unpruned: pruned %d, wedges %d; want 0 and %d", name, stats.Pruned, stats.Wedges, walked.Wedges)
		}
	}
}
