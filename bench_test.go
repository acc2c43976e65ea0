// Benchmarks regenerating the kernels behind every table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Dataset analogs are generated once and shared across benches; sizes
// are the Scale-1 laptop defaults, so absolute numbers are far below
// the paper's testbed — the comparisons (who wins, by what factor) are
// what these benches reproduce. cmd/experiments produces the
// corresponding full reports.
package hyperline_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"hyperline"
	"hyperline/internal/algo"
	"hyperline/internal/core"
	"hyperline/internal/experiments"
	"hyperline/internal/gen"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/par"
	"hyperline/internal/spectral"
	"hyperline/internal/spgemm"
)

var (
	ljOnce sync.Once
	ljH    *hg.Hypergraph

	friendOnce sync.Once
	friendH    *hg.Hypergraph

	emailOnce sync.Once
	emailH    *hg.Hypergraph

	condOnce sync.Once
	condH    *hg.Hypergraph
)

func lj() *hg.Hypergraph {
	ljOnce.Do(func() { ljH = experiments.LiveJournalAnalog(1) })
	return ljH
}
func friend() *hg.Hypergraph {
	friendOnce.Do(func() { friendH = experiments.FriendsterAnalog(1) })
	return friendH
}
func email() *hg.Hypergraph {
	emailOnce.Do(func() { emailH = experiments.EmailAnalog(1) })
	return emailH
}
func cond() *hg.Hypergraph {
	condOnce.Do(func() { condH = experiments.CondMatAnalog(1) })
	return condH
}

func cfgFor(b *testing.B, notation string) core.Config {
	cfg, err := core.ParseNotation(notation)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// ---- Table I: s-overlap stage, Algorithm 1 vs Algorithm 2 ----

func BenchmarkTable1SOverlapAlgo1(b *testing.B) {
	h := lj()
	cfg := cfgFor(b, "1CN")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 8, cfg)
	}
}

func BenchmarkTable1SOverlapAlgo2(b *testing.B) {
	h := lj()
	cfg := cfgFor(b, "2BA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 8, cfg)
	}
}

// ---- Figure 4: s-clique ensemble on the disease-gene analog ----

func BenchmarkFig4SCliqueEnsemble(b *testing.B) {
	h := experiments.DisGeNetAnalog(1).Dual()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EnsembleEdges(context.Background(), h, experiments.Fig4SValues, core.Config{})
	}
}

// runAt runs the pipeline for one s straight through core.RunBatch.
func runAt(b *testing.B, h *hg.Hypergraph, s int, cfg core.PipelineConfig) *core.PipelineResult {
	b.Helper()
	out, err := core.RunBatch(context.Background(), h, []int{s}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return out[s]
}

// executeAt runs a one-s line query through the public Execute entry.
func executeAt(b *testing.B, h *hyperline.Hypergraph, s int, opt hyperline.Options) *hyperline.Result {
	b.Helper()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: h, S: []int{s}, Options: opt})
	if err != nil {
		b.Fatal(err)
	}
	return qr.Entries[0].Result
}

// ---- Table II: PageRank over s-clique graphs ----

func BenchmarkTable2PageRank(b *testing.B) {
	h := experiments.DisGeNetAnalog(1)
	res := runAt(b, h, 10, core.PipelineConfig{})
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		_, iters = algo.PageRankIters(res.Graph, algo.PageRankOptions{})
	}
	// A kernel change must not win by converging differently.
	b.ReportMetric(float64(iters), "iterations/op")
	// Time per adjacency entry gathered: the kernel's own rate, apart
	// from how many iterations it takes.
	_, adj, _, _ := res.Graph.CSR()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(iters*len(adj)), "ns/adj")
}

// ---- Figure 5: betweenness on the virology 5-line graph ----

func BenchmarkFig5Betweenness(b *testing.B) {
	res := runAt(b, experiments.VirologyAnalog(1), 5, core.PipelineConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Betweenness(res.Graph, par.Options{})
	}
}

// ---- Figure 6: ensemble + normalized algebraic connectivity ----

func BenchmarkFig6Ensemble(b *testing.B) {
	h := cond()
	sValues := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EnsembleEdges(context.Background(), h, sValues, core.Config{})
	}
}

func BenchmarkFig6Connectivity(b *testing.B) {
	res := runAt(b, cond(), 8, core.PipelineConfig{})
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		_, iters = spectral.NormalizedAlgebraicConnectivityIters(res.Graph, spectral.Options{})
	}
	b.ReportMetric(float64(iters), "iterations/op")
}

// ---- §V-C: the IMDB pipeline end to end ----

func BenchmarkIMDBPipeline(b *testing.B) {
	h := experiments.IMDBAnalog(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := executeAt(b, h, 101, hyperline.Options{})
		algo.ConnectedComponents(res.Graph)
		algo.Betweenness(res.Graph, par.Options{})
	}
}

// ---- Figure 7: the twelve Table III configurations ----

func benchmarkFig7(b *testing.B, notation string) {
	h := friend()
	cfg := cfgFor(b, notation)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAt(b, h, 8, core.PipelineConfig{Core: cfg})
	}
}

func BenchmarkFig7_1BD(b *testing.B) { benchmarkFig7(b, "1BD") }
func BenchmarkFig7_1CD(b *testing.B) { benchmarkFig7(b, "1CD") }
func BenchmarkFig7_1BA(b *testing.B) { benchmarkFig7(b, "1BA") }
func BenchmarkFig7_1CA(b *testing.B) { benchmarkFig7(b, "1CA") }
func BenchmarkFig7_1BN(b *testing.B) { benchmarkFig7(b, "1BN") }
func BenchmarkFig7_1CN(b *testing.B) { benchmarkFig7(b, "1CN") }
func BenchmarkFig7_2BN(b *testing.B) { benchmarkFig7(b, "2BN") }
func BenchmarkFig7_2CN(b *testing.B) { benchmarkFig7(b, "2CN") }
func BenchmarkFig7_2BA(b *testing.B) { benchmarkFig7(b, "2BA") }
func BenchmarkFig7_2CA(b *testing.B) { benchmarkFig7(b, "2CA") }
func BenchmarkFig7_2BD(b *testing.B) { benchmarkFig7(b, "2BD") }
func BenchmarkFig7_2CD(b *testing.B) { benchmarkFig7(b, "2CD") }

// ---- Figure 8: strong scaling of Algorithm 2 ----

func benchmarkFig8(b *testing.B, threads int) {
	h := lj()
	cfg := cfgFor(b, "2CA")
	cfg.Workers = threads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 8, cfg)
	}
}

func BenchmarkFig8Threads1(b *testing.B)  { benchmarkFig8(b, 1) }
func BenchmarkFig8Threads2(b *testing.B)  { benchmarkFig8(b, 2) }
func BenchmarkFig8Threads4(b *testing.B)  { benchmarkFig8(b, 4) }
func BenchmarkFig8Threads8(b *testing.B)  { benchmarkFig8(b, 8) }
func BenchmarkFig8Threads16(b *testing.B) { benchmarkFig8(b, 16) }

// ---- Figure 9: weak scaling on the DNS analog ----

func benchmarkFig9(b *testing.B, files int) {
	h := experiments.DNSAnalog(1, files)
	cfg := core.Config{Workers: files}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 8, cfg)
	}
}

func BenchmarkFig9Files1(b *testing.B) { benchmarkFig9(b, 1) }
func BenchmarkFig9Files2(b *testing.B) { benchmarkFig9(b, 2) }
func BenchmarkFig9Files4(b *testing.B) { benchmarkFig9(b, 4) }

// ---- Figure 10: workload characterization (visit counting) ----

func BenchmarkFig10VisitCounting(b *testing.B) {
	h := lj()
	cfg := cfgFor(b, "2CA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, _ := core.SLineEdges(context.Background(), h, 8, cfg)
		if len(stats.WedgesPerWorker) == 0 {
			b.Fatal("no per-worker stats")
		}
	}
}

// ---- Figure 11: SpGEMM baselines vs Algorithms 1 and 2 ----

func BenchmarkFig11SpGEMMFilter(b *testing.B) {
	h := email()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.SLineFilter(h, 8, par.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11SpGEMMFilterUpper(b *testing.B) {
	h := email()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.SLineFilterUpper(h, 8, par.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11SpGEMMHashUpper(b *testing.B) {
	// The hash-accumulator SpGEMM models the Nagasaka et al. library
	// the paper benchmarks against.
	h := email()
	a, bt := spgemm.EdgeView(h), spgemm.VertexView(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := spgemm.MultiplyHashUpper(a, bt, par.Options{})
		if err != nil {
			b.Fatal(err)
		}
		spgemm.FilterS(l, 8)
	}
}

func BenchmarkFig11Algo1CA(b *testing.B) {
	h := email()
	cfg := cfgFor(b, "1CA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAt(b, h, 8, core.PipelineConfig{Core: cfg})
	}
}

func BenchmarkFig11Algo2BA(b *testing.B) {
	h := email()
	cfg := cfgFor(b, "2BA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAt(b, h, 8, core.PipelineConfig{Core: cfg})
	}
}

// ---- Table V: end-to-end LPCC at s=1 vs s=8 ----

func benchmarkTable5(b *testing.B, s int) {
	h := friend()
	cfg := cfgFor(b, "2CA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runAt(b, h, s, core.PipelineConfig{Core: cfg})
		algo.LabelPropagationCC(res.Graph, par.Options{})
	}
}

func BenchmarkTable5LPCCS1(b *testing.B) { benchmarkTable5(b, 1) }
func BenchmarkTable5LPCCS8(b *testing.B) { benchmarkTable5(b, 8) }

// ---- Ablations (DESIGN.md §5) ----

// Counter storage (§III-F) is BenchmarkStage3Kernel/{dense,map} in
// internal/core.

// Degree-based pruning on/off at a selective s.
func BenchmarkAblationPruningOn(b *testing.B) {
	h := lj()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 32, core.Config{})
	}
}

func BenchmarkAblationPruningOff(b *testing.B) {
	h := lj()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 32, core.Config{DisablePruning: true})
	}
}

// Short-circuited vs exact set intersections in Algorithm 1.
func BenchmarkAblationShortCircuitOn(b *testing.B) {
	h := email()
	cfg := core.Config{Algorithm: core.AlgoSetIntersection}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 8, cfg)
	}
}

func BenchmarkAblationShortCircuitOff(b *testing.B) {
	h := email()
	cfg := core.Config{Algorithm: core.AlgoSetIntersection, DisableShortCircuit: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 8, cfg)
	}
}

// Granularity control (§III-F): blocked chunk-size sweep.
func benchmarkGrain(b *testing.B, grain int) {
	h := lj()
	cfg := core.Config{Grain: grain}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SLineEdges(context.Background(), h, 8, cfg)
	}
}

func BenchmarkAblationGrain16(b *testing.B)   { benchmarkGrain(b, 16) }
func BenchmarkAblationGrain64(b *testing.B)   { benchmarkGrain(b, 64) }
func BenchmarkAblationGrain256(b *testing.B)  { benchmarkGrain(b, 256) }
func BenchmarkAblationGrain2048(b *testing.B) { benchmarkGrain(b, 2048) }

// Toplex simplification (Stage 2) on/off on a subset-heavy input.
func BenchmarkAblationToplexOff(b *testing.B) {
	h := nestedHypergraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAt(b, h, 2, core.PipelineConfig{})
	}
}

func BenchmarkAblationToplexOn(b *testing.B) {
	h := nestedHypergraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAt(b, h, 2, core.PipelineConfig{Toplex: core.ToplexOn})
	}
}

var nestedOnce sync.Once
var nestedH *hg.Hypergraph

// nestedHypergraph has many hyperedges strictly contained in larger
// ones, so Stage 2 shrinks it substantially.
func nestedHypergraph() *hg.Hypergraph {
	nestedOnce.Do(func() {
		base := gen.Community(gen.CommunityConfig{
			Seed: 7, NumVertices: 5000, NumCommunities: 400,
			MeanCommunitySize: 12, EdgesPerCommunity: 1,
		})
		b := hg.NewBuilder(int(base.Incidences()) * 3)
		e := uint32(0)
		for i := 0; i < base.NumEdges(); i++ {
			vs := base.EdgeVertices(uint32(i))
			b.AddEdge(e, vs...)
			e++
			// Two nested sub-edges per toplex.
			if len(vs) >= 4 {
				b.AddEdge(e, vs[:len(vs)/2]...)
				e++
				b.AddEdge(e, vs[len(vs)/4:]...)
				e++
			}
		}
		nestedH = b.Build()
	})
	return nestedH
}

// ---- Batch engine: one planned multi-s pass vs pinned per-s runs ----

// batchSweep is the multi-resolution s-sweep the batch benches request.
var batchSweep = []int{2, 3, 4, 6, 8}

// BenchmarkBatchSweepPlanner runs the sweep as one planner-driven
// RunBatch call (the planner coalesces it into a single ensemble
// counting pass on this dataset).
func BenchmarkBatchSweepPlanner(b *testing.B) {
	h := lj()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunBatch(context.Background(), h, batchSweep, core.PipelineConfig{})
	}
}

// BenchmarkBatchSweepPinnedPerS runs the same sweep as independent
// pinned Algorithm 2 pipeline runs — the pre-batching serving pattern.
func BenchmarkBatchSweepPinnedPerS(b *testing.B) {
	h := lj()
	cfg := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoHashmap}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range batchSweep {
			runAt(b, h, s, cfg)
		}
	}
}

// ---- Stage 4: defensive Build vs the chunked BuildSorted fast path ----

var stage4Once sync.Once
var stage4Edges []graph.Edge
var stage4Nodes int

func stage4Input() ([]graph.Edge, int) {
	stage4Once.Do(func() {
		h := lj()
		stage4Edges, _, _ = core.SLineEdges(context.Background(), h, 8, core.Config{})
		stage4Nodes = h.NumEdges()
	})
	return stage4Edges, stage4Nodes
}

func BenchmarkStage4Build(b *testing.B) {
	edges, nodes := stage4Input()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Build(nodes, edges, true)
	}
}

// BenchmarkStage4BuildSorted shows both ends of the chunked build: one
// chunk (workers=1) and as many as GOMAXPROCS allows. Run with
// -cpu 1,2,...: the multi-chunk line must never be slower than the
// one-chunk line on the box at hand.
func BenchmarkStage4BuildSorted(b *testing.B) {
	edges, nodes := stage4Input()
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.BuildSorted(nodes, edges, true, par.Options{Workers: workers})
			}
			b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// ---- Stage 5 at sweep grain: measure sweeps through Execute ----

// BenchmarkStage5Sweep runs the measure-bundle benchmark workload's three
// sweeps (Friendster ×1 analog, s=4:8) through Execute, at a budget of
// one worker and of GOMAXPROCS. Execute also builds the five
// projections; the "none" rows are that part alone, so a measure's
// Stage-5 cost is its row minus the "none" row of the same budget.
func BenchmarkStage5Sweep(b *testing.B) {
	h := friend()
	for _, measureName := range []string{"none", "components", "pagerank", "connectivity"} {
		for _, workers := range []int{1, 0} {
			name := measureName + "/workers=1"
			if workers == 0 {
				name = measureName + "/workers=GOMAXPROCS"
			}
			q := hyperline.Query{Hypergraph: h, S: []int{4, 5, 6, 7, 8}, Options: hyperline.Options{Workers: workers}}
			if measureName != "none" {
				q.Measure = measureName
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					qr, err := hyperline.Execute(context.Background(), q)
					if err != nil {
						b.Fatal(err)
					}
					for _, e := range qr.Entries {
						if e.Err != nil {
							b.Fatal(e.Err)
						}
					}
				}
			})
		}
	}
}

// ---- v2 Query API: Execute wrapper overhead vs the bare pipeline ----

// fig8Pipeline is the Fig-8 configuration (2CA, 8 workers, dense
// counters) as a core.PipelineConfig.
func fig8Pipeline(b *testing.B) core.PipelineConfig {
	cfg := cfgFor(b, "2CA")
	cfg.Workers = 8
	return core.PipelineConfig{Core: cfg}
}

// BenchmarkFig8CoreRun drives the Fig-8 query straight through the
// pipeline entry — the baseline the Execute wrapper is measured
// against.
func BenchmarkFig8CoreRun(b *testing.B) {
	h := lj()
	pc := fig8Pipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAt(b, h, 8, pc)
	}
}

// BenchmarkFig8Execute drives the identical query through the
// Execute surface (validation, context plumbing, QueryResult
// assembly). The wrapper overhead over BenchmarkFig8CoreRun is the
// price of the unified API and must stay under 2%.
func BenchmarkFig8Execute(b *testing.B) {
	h := lj()
	q := hyperline.Query{
		Hypergraph: h,
		S:          []int{8},
		Options: hyperline.Options{
			Algorithm: hyperline.AlgoHashmap,
			Partition: hyperline.Cyclic,
			Relabel:   hyperline.RelabelAscending,
			Workers:   8,
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hyperline.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- I/O sanity bench used in the README quickstart ----

func BenchmarkQuickstartPipeline(b *testing.B) {
	h := experiments.CompBoardAnalog(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := executeAt(b, h, 2, hyperline.Options{})
		hyperline.SConnectedComponents(res)
	}
}

// ---- The benchmark's cold-single operation, for -benchmem and profiles ----

// BenchmarkColdSingle is one bench/ cold-single operation — Execute at
// s=8 on the LiveJournal analog at 0.3 scale (bench/dataset.go), no
// cache — where `go test` can attach -benchmem and -cpuprofile to it.
// bench/run.sh stays the measure of record.
func BenchmarkColdSingle(b *testing.B) {
	h := gen.Community(gen.CommunityConfig{
		Seed: 1001, NumVertices: 9000, NumCommunities: 1050,
		MeanCommunitySize: 10, MaxCommunitySize: 1200,
		EdgesPerCommunity: 4, Background: 1200, Bridge: 0.25,
	})
	q := hyperline.Query{Hypergraph: h, S: []int{8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hyperline.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSweep is one bench/ cold-sweep operation — Execute at
// s=1..8 on the Friendster analog at scale 2 (bench/dataset.go), no
// cache: one ensemble counting pass and eight Stage-4 builds. It
// reports the Stage-3 time and stage4_wall_ms, what the operation took
// beyond Stages 1-3 — the builds' wall time, which the per-s Squeeze
// values no longer add up to once the builds overlap.
func BenchmarkColdSweep(b *testing.B) {
	h := gen.Community(gen.CommunityConfig{
		Seed: 1003, NumVertices: 120000, NumCommunities: 6000,
		MeanCommunitySize: 6, MaxCommunitySize: 120,
		EdgesPerCommunity: 3, Background: 16000,
	})
	q := hyperline.Query{Hypergraph: h, S: []int{1, 2, 3, 4, 5, 6, 7, 8}}
	var stage3, stage4 time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := hyperline.Execute(context.Background(), q)
		wall := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		t := res.Entries[0].Timings()
		stage3 += t.SOverlap
		stage4 += wall - t.Preprocess - t.Toplex - t.SOverlap
	}
	b.ReportMetric(float64(stage3.Microseconds())/1e3/float64(b.N), "stage3_ms")
	b.ReportMetric(float64(stage4.Microseconds())/1e3/float64(b.N), "stage4_wall_ms")
}
