package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// pipelinePairs extracts the s-line edge set of a pipeline result in
// terms of the input hypergraph's original hyperedge IDs.
func pipelinePairs(res *PipelineResult) map[[2]uint32]bool {
	out := map[[2]uint32]bool{}
	for _, e := range res.Graph.Edges() {
		u := res.HyperedgeID(e.U)
		v := res.HyperedgeID(e.V)
		if u > v {
			u, v = v, u
		}
		out[[2]uint32{u, v}] = true
	}
	return out
}

// pipelineAt runs the pipeline for one s, failing the test on error.
func pipelineAt(t testing.TB, h *hg.Hypergraph, s int, cfg PipelineConfig) *PipelineResult {
	t.Helper()
	out, err := RunBatch(context.Background(), h, []int{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out[s]
}

func naivePairs(h *hg.Hypergraph, s int) map[[2]uint32]bool {
	out := map[[2]uint32]bool{}
	for _, e := range NaiveAllPairs(h, s) {
		out[[2]uint32{e.U, e.V}] = true
	}
	return out
}

// TestPipelineRelabelInvariance: every Table III configuration produces
// the same s-line graph once node IDs are mapped back to input
// hyperedge IDs.
func TestPipelineRelabelInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	h := randomHypergraph(r, 50, 70, 8)
	const s = 2
	want := naivePairs(h, s)
	for _, notation := range AllNotations() {
		cfg, err := ParseNotation(notation)
		if err != nil {
			t.Fatal(err)
		}
		cfg.DisableShortCircuit = true
		res := pipelineAt(t, h, s, PipelineConfig{Core: cfg})
		if got := pipelinePairs(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pipeline result differs from oracle (got %d pairs, want %d)",
				notation, len(got), len(want))
		}
	}
}

func TestPipelineSqueeze(t *testing.T) {
	h := paperExample()
	res := pipelineAt(t, h, 3, PipelineConfig{})
	// s=3 line graph has edges {1,3} and {2,3} → 3 non-isolated nodes.
	if res.Graph.NumNodes() != 3 {
		t.Fatalf("squeezed nodes = %d, want 3", res.Graph.NumNodes())
	}
	if !res.Graph.Squeezed() {
		t.Fatal("expected squeezed graph")
	}
	ids := map[uint32]bool{}
	for n := 0; n < res.Graph.NumNodes(); n++ {
		ids[res.HyperedgeID(uint32(n))] = true
	}
	if !ids[0] || !ids[1] || !ids[2] || ids[3] {
		t.Fatalf("squeezed node identities wrong: %v", ids)
	}
}

func TestPipelineNoSqueeze(t *testing.T) {
	h := paperExample()
	res := pipelineAt(t, h, 3, PipelineConfig{NoSqueeze: true})
	if res.Graph.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4 (unsqueezed)", res.Graph.NumNodes())
	}
	if res.Graph.Squeezed() {
		t.Fatal("unexpected squeeze")
	}
}

func TestPipelineToplexStage(t *testing.T) {
	// Edge 1 {a,b,c} and edge 2 {b,c,d} are subsets of edge 3
	// {a,b,c,d,e}; only toplexes {3, 4} survive simplification, so the
	// 1-line graph of the simplified hypergraph has one edge (3-4).
	h := paperExample()
	res := pipelineAt(t, h, 1, PipelineConfig{Toplex: true})
	if res.Graph.NumEdges() != 1 {
		t.Fatalf("toplex 1-line graph edges = %d, want 1", res.Graph.NumEdges())
	}
	pairs := pipelinePairs(res)
	if !pairs[[2]uint32{2, 3}] {
		t.Fatalf("expected edge between original hyperedges 2 and 3, got %v", pairs)
	}
	if res.Timings.Toplex <= 0 {
		t.Fatal("toplex stage not timed")
	}
}

func TestPipelineTimingsPopulated(t *testing.T) {
	h := paperExample()
	res := pipelineAt(t, h, 2, PipelineConfig{})
	if res.Timings.Total() <= 0 {
		t.Fatal("timings not recorded")
	}
	if res.Timings.SOverlap <= 0 || res.Timings.Preprocess <= 0 {
		t.Fatalf("stage timings missing: %+v", res.Timings)
	}
}

func TestEnsembleBatchMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	h := randomHypergraph(r, 40, 50, 7)
	sValues := []int{1, 2, 3}
	ens, _ := RunBatch(context.Background(), h, sValues, PipelineConfig{Core: Config{Algorithm: AlgoEnsemble}})
	if len(ens) != 3 {
		t.Fatalf("ensemble results = %d, want 3", len(ens))
	}
	for _, s := range sValues {
		single := pipelineAt(t, h, s, PipelineConfig{})
		if !reflect.DeepEqual(pipelinePairs(ens[s]), pipelinePairs(single)) {
			t.Fatalf("s=%d: ensemble pipeline differs from single pipeline", s)
		}
	}
}

func TestEnsembleBatchWithRelabel(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	h := randomHypergraph(r, 40, 50, 7)
	cfg := PipelineConfig{Core: Config{Algorithm: AlgoEnsemble, Relabel: hg.RelabelAscending}}
	ens, _ := RunBatch(context.Background(), h, []int{2}, cfg)
	want := naivePairs(h, 2)
	if got := pipelinePairs(ens[2]); !reflect.DeepEqual(got, want) {
		t.Fatal("relabeled ensemble pipeline differs from oracle")
	}
}

// TestPipelineProperty cross-validates the full pipeline (relabeling +
// squeezing + mapping back) against the naive oracle on random inputs.
func TestPipelineProperty(t *testing.T) {
	f := func(seed int64, sRaw, mode uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 25, 30, 6)
		s := 1 + int(sRaw%4)
		cfg := PipelineConfig{}
		switch mode % 3 {
		case 1:
			cfg.Core.Relabel = hg.RelabelAscending
		case 2:
			cfg.Core.Relabel = hg.RelabelDescending
		}
		res := pipelineAt(t, h, s, cfg)
		return reflect.DeepEqual(pipelinePairs(res), naivePairs(h, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineWeightsExact verifies the overlap weights survive the
// pipeline: the graph edge weight equals inc(ei, ej) in the input.
func TestPipelineWeightsExact(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	h := randomHypergraph(r, 30, 40, 8)
	res := pipelineAt(t, h, 2, PipelineConfig{Core: Config{Relabel: hg.RelabelDescending}})
	for _, e := range res.Graph.Edges() {
		u, v := res.HyperedgeID(e.U), res.HyperedgeID(e.V)
		if want := h.Inc(u, v); int(e.W) != want {
			t.Fatalf("edge (%d,%d) weight %d, want %d", u, v, e.W, want)
		}
	}
}

// TestSweepBuildsAtAnyBudget: a sweep's Stage-4 builds share the worker
// budget through par.EachS, which changes who builds when, never what
// is built — every budget gives the same CSR arrays, node-to-hyperedge
// maps, Stats (apart from the per-worker breakdown, whose length is the
// budget) and Plan, and each graph is the one a single-s run builds.
func TestSweepBuildsAtAnyBudget(t *testing.T) {
	// Lift GOMAXPROCS so Workers 8 is a budget of eight on any box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	h := gen.Community(gen.CommunityConfig{
		Seed: 7, NumVertices: 3000, NumCommunities: 120,
		MeanCommunitySize: 12, MaxCommunitySize: 200, EdgesPerCommunity: 6, Background: 900,
	})
	sweep := []int{1, 2, 3, 4, 5, 6, 7, 8}
	type built struct {
		off         []int64
		adj, wgt    []uint32
		orig, hedge []uint32
	}
	snap := func(r *PipelineResult) built {
		off, adj, wgt, orig := r.Graph.CSR()
		return built{off, adj, wgt, orig, r.HyperedgeIDs}
	}
	single := make(map[int]built, len(sweep))
	for _, s := range sweep {
		single[s] = snap(pipelineAt(t, h, s, PipelineConfig{Core: Config{Workers: 1}}))
	}
	if len(single[8].adj) == 0 {
		t.Fatal("s=8 projection is empty: the sweep does not exercise every build")
	}
	var wantStats Stats
	var wantPlan PlanInfo
	for _, w := range []int{1, 2, 3, 8} {
		out, err := RunBatch(context.Background(), h, sweep, PipelineConfig{Core: Config{Workers: w}})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sweep {
			r := out[s]
			if got := snap(r); !reflect.DeepEqual(got, single[s]) {
				t.Fatalf("workers=%d s=%d: sweep build differs from the single-s build", w, s)
			}
			stats := r.Stats
			if len(stats.WedgesPerWorker) != w {
				t.Fatalf("workers=%d s=%d: %d per-worker wedge counts", w, s, len(stats.WedgesPerWorker))
			}
			stats.WedgesPerWorker = nil
			if w == 1 && s == sweep[0] {
				wantStats, wantPlan = stats, r.Plan
			}
			if !reflect.DeepEqual(stats, wantStats) || r.Plan != wantPlan {
				t.Fatalf("workers=%d s=%d: stats %+v plan %+v, want %+v %+v", w, s, stats, r.Plan, wantStats, wantPlan)
			}
		}
	}
}

// TestSweepBeyondUint32: an overlap is a uint32, so no pair reaches an
// s of 2³² or more — a sweep beside s = 1 must answer such an s with an
// empty graph under every algorithm, not with a filtration at s mod 2³².
func TestSweepBeyondUint32(t *testing.T) {
	h := paperExample()
	full := len(NaiveAllPairs(h, 1))
	for _, big := range []int{1<<32 + 1, 1 << 32, 1<<33 + 3} {
		for _, algo := range []Algorithm{AlgoAuto, AlgoEnsemble, AlgoHashmap} {
			out, err := RunBatch(context.Background(), h, []int{1, big}, PipelineConfig{Core: Config{Algorithm: algo}})
			if err != nil {
				t.Fatal(err)
			}
			if n := out[1].Graph.NumEdges(); n != full {
				t.Fatalf("%v s=1: %d edges, want %d", algo, n, full)
			}
			if g := out[big].Graph; g.NumEdges() != 0 {
				t.Fatalf("%v s=%d: %d edges, want none", algo, big, g.NumEdges())
			}
		}
	}
}
