package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"hyperline/internal/algo"
	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/par"
	"hyperline/internal/spgemm"
)

// Table1Data reproduces Table I: the per-stage cost of the framework
// on the LiveJournal analog under the prior algorithm (Algorithm 1) and
// the paper's method (Algorithm 2).
type Table1Data struct {
	S                 int
	Stages            [2]core.StageTimings // [0] = Algorithm 1, [1] = Algorithm 2
	CC                [2]time.Duration     // s-connected components stage
	Totals            [2]time.Duration
	Speedup           float64
	SetIntersections  [2]int64
	ComponentsMatched bool
}

// Table1 runs the end-to-end framework twice (1CN and 2BA, the paper's
// compared configurations) on the LiveJournal analog with s = 8.
func Table1(w io.Writer, scale Scale, workers int) Table1Data {
	h := LiveJournalAnalog(scale)
	const s = 8
	data := Table1Data{S: s}

	configs := [2]core.Config{
		mustNotation("1CN"),
		mustNotation("2BA"),
	}
	var ccCounts [2]int
	for i, cfg := range configs {
		cfg.Workers = workers
		out, _ := core.RunBatch(context.Background(), h, []int{s}, core.PipelineConfig{Core: cfg})
		res := out[s]
		t0 := time.Now()
		cc := algo.LabelPropagationCC(res.Graph, par.Options{Workers: workers})
		data.CC[i] = time.Since(t0)
		data.Stages[i] = res.Timings
		data.Totals[i] = res.Timings.Total() + data.CC[i]
		data.SetIntersections[i] = res.Stats.SetIntersections
		ccCounts[i] = cc.Count
	}
	data.ComponentsMatched = ccCounts[0] == ccCounts[1]
	if data.Totals[1] > 0 {
		data.Speedup = float64(data.Totals[0]) / float64(data.Totals[1])
	}

	fmt.Fprintf(w, "Table I analog — LiveJournal analog, s=%d (stage, Algorithm 1 [1CN], our method [2BA])\n", s)
	fmt.Fprintf(w, "  %-24s %12v %12v\n", "preprocessing", data.Stages[0].Preprocess, data.Stages[1].Preprocess)
	fmt.Fprintf(w, "  %-24s %12v %12v\n", "s-overlap", data.Stages[0].SOverlap, data.Stages[1].SOverlap)
	fmt.Fprintf(w, "  %-24s %12v %12v\n", "squeeze", data.Stages[0].Squeeze, data.Stages[1].Squeeze)
	fmt.Fprintf(w, "  %-24s %12v %12v\n", "s-connected components", data.CC[0], data.CC[1])
	fmt.Fprintf(w, "  %-24s %12v %12v\n", "total time", data.Totals[0], data.Totals[1])
	fmt.Fprintf(w, "  %-24s %12s %11.1fx\n", "speedup", "1x", data.Speedup)
	fmt.Fprintf(w, "  %-24s %12d %12d\n", "#set intersections", data.SetIntersections[0], data.SetIntersections[1])
	fmt.Fprintf(w, "  components agree: %v (count %d)\n", data.ComponentsMatched, ccCounts[0])
	return data
}

func mustNotation(n string) core.Config {
	cfg, err := core.ParseNotation(n)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Fig7Data reproduces Figure 7: speedup of the twelve Table III
// configurations relative to 1CN, per dataset, at s = 8.
type Fig7Data struct {
	S int
	// Speedup[dataset][notation] = time(1CN) / time(notation).
	Speedup map[string]map[string]float64
}

// Fig7 measures the end-to-end pipeline time (including the relabel
// preprocessing, as the paper does) for all twelve configurations.
func Fig7(w io.Writer, scale Scale, workers int) Fig7Data {
	const s = 8
	data := Fig7Data{S: s, Speedup: map[string]map[string]float64{}}
	names := []string{"Friendster", "Web", "LiveJournal", "Amazon-reviews", "Stackoverflow-answers"}
	sets := Fig7Datasets(scale)
	for _, name := range names {
		h := sets[name]
		times := map[string]time.Duration{}
		for _, notation := range core.AllNotations() {
			cfg := mustNotation(notation)
			cfg.Workers = workers
			t0 := time.Now()
			core.RunBatch(context.Background(), h, []int{s}, core.PipelineConfig{Core: cfg})
			times[notation] = time.Since(t0)
		}
		base := times["1CN"]
		data.Speedup[name] = map[string]float64{}
		fmt.Fprintf(w, "Figure 7 analog — %s (s=%d, speedup vs 1CN)\n", name, s)
		for _, notation := range core.AllNotations() {
			sp := float64(base) / float64(times[notation])
			data.Speedup[name][notation] = sp
			fmt.Fprintf(w, "  %-4s %8.2fx   (%v)\n", notation, sp, times[notation])
		}
	}
	return data
}

// Fig8Data reproduces Figure 8: strong scaling of Algorithm 2 at s=8.
type Fig8Data struct {
	// Runtime[dataset][notation][threads] = s-overlap stage time.
	Runtime map[string]map[string]map[int]time.Duration
}

// Fig8 doubles the thread count with the input fixed for the four
// Algorithm 2 configurations the paper plots (2BN, 2CN, 2BA, 2CA).
func Fig8(w io.Writer, scale Scale, maxThreads int) Fig8Data {
	const s = 8
	if maxThreads <= 0 {
		maxThreads = runtime.GOMAXPROCS(0)
	}
	data := Fig8Data{Runtime: map[string]map[string]map[int]time.Duration{}}
	sets := []struct {
		name string
		h    *hg.Hypergraph
	}{
		{"LiveJournal", LiveJournalAnalog(scale)},
		{"com-Orkut", OrkutAnalog(scale)},
		{"DNS-4", DNSAnalog(scale, 4)},
		{"Web", WebAnalog(scale)},
	}
	notations := []string{"2BN", "2CN", "2BA", "2CA"}
	for _, ds := range sets {
		data.Runtime[ds.name] = map[string]map[int]time.Duration{}
		fmt.Fprintf(w, "Figure 8 analog — %s strong scaling (s=%d)\n", ds.name, s)
		for _, notation := range notations {
			data.Runtime[ds.name][notation] = map[int]time.Duration{}
			for threads := 1; threads <= maxThreads; threads *= 2 {
				cfg := mustNotation(notation)
				cfg.Workers = threads
				out, _ := core.RunBatch(context.Background(), ds.h, []int{s}, core.PipelineConfig{Core: cfg})
				res := out[s]
				data.Runtime[ds.name][notation][threads] = res.Timings.SOverlap
				fmt.Fprintf(w, "  %-4s threads=%-3d s-overlap=%v\n", notation, threads, res.Timings.SOverlap)
			}
		}
	}
	return data
}

// Fig9Data reproduces Figure 9: weak scaling on the activeDNS analog.
type Fig9Data struct {
	// Runtime[s][files] = s-overlap time with workers == files.
	Runtime map[int]map[int]time.Duration
}

// Fig9 doubles the dataset (DNS file count) together with the thread
// count, for s ∈ {2, 4, 8} using blocked distribution as in the paper.
func Fig9(w io.Writer, scale Scale, maxFiles int) Fig9Data {
	if maxFiles <= 0 {
		maxFiles = 8
	}
	data := Fig9Data{Runtime: map[int]map[int]time.Duration{}}
	for _, s := range []int{8, 4, 2} {
		data.Runtime[s] = map[int]time.Duration{}
		fmt.Fprintf(w, "Figure 9 analog — activeDNS weak scaling (s=%d)\n", s)
		for files := 1; files <= maxFiles; files *= 2 {
			h := DNSAnalog(scale, files)
			cfg := core.Config{Algorithm: core.AlgoHashmap, Partition: par.Blocked, Workers: files}
			out, _ := core.RunBatch(context.Background(), h, []int{s}, core.PipelineConfig{Core: cfg})
			res := out[s]
			data.Runtime[s][files] = res.Timings.SOverlap
			fmt.Fprintf(w, "  files=%-4d threads=%-4d s-overlap=%v\n", files, files, res.Timings.SOverlap)
		}
	}
	return data
}

// Fig10Data reproduces Figure 10: per-worker wedge visits of Algorithm
// 2 under the six partition/relabel combinations.
type Fig10Data struct {
	// Visits[notation][worker] = wedge visits by that worker.
	Visits map[string][]int64
}

// Fig10 characterizes workload balance on the LiveJournal analog with
// the given worker count (the paper uses 32 threads).
func Fig10(w io.Writer, scale Scale, workers int) Fig10Data {
	const s = 8
	if workers <= 0 {
		workers = 32
	}
	h := LiveJournalAnalog(scale)
	data := Fig10Data{Visits: map[string][]int64{}}
	for _, notation := range []string{"2BN", "2CN", "2BA", "2CA", "2BD", "2CD"} {
		cfg := mustNotation(notation)
		cfg.Workers = workers
		// Match the measurement to the traversal the figure counts:
		// run on the preprocessed (relabeled) hypergraph.
		pre := hg.Preprocess(h, cfg.Relabel)
		_, stats, _ := core.SLineEdges(context.Background(), pre.H, s, cfg)
		data.Visits[notation] = stats.WedgesPerWorker
		min, max := stats.WedgesPerWorker[0], stats.WedgesPerWorker[0]
		for _, v := range stats.WedgesPerWorker {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		imbalance := float64(max) / float64(max64(min, 1))
		fmt.Fprintf(w, "Figure 10 analog — %s: total wedges=%d, per-worker min=%d max=%d imbalance=%.2fx\n",
			notation, stats.Wedges, min, max, imbalance)
	}
	return data
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Fig11Data reproduces Figure 11: runtime of the SpGEMM baselines
// versus Algorithm 1 (1CA) and Algorithm 2 (2BA) across s values.
type Fig11Data struct {
	// Runtime[dataset][method][s] = edge-list computation time.
	Runtime map[string]map[string]map[int]time.Duration
}

// Fig11Methods lists the four compared methods in plot order.
var Fig11Methods = []string{"SpGEMM+Filter", "SpGEMM+Filter+Upper", "1CA", "2BA"}

// Fig11 sweeps s on the email-EuAll and Friendster analogs.
func Fig11(w io.Writer, scale Scale, workers int) Fig11Data {
	data := Fig11Data{Runtime: map[string]map[string]map[int]time.Duration{}}
	sets := []struct {
		name    string
		h       *hg.Hypergraph
		sValues []int
	}{
		{"email-EuAll", EmailAnalog(scale), []int{2, 4, 8, 16, 32, 64, 128}},
		{"Friendster", FriendsterAnalog(scale), []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}},
	}
	opt := par.Options{Workers: workers}
	for _, ds := range sets {
		data.Runtime[ds.name] = map[string]map[int]time.Duration{}
		for _, m := range Fig11Methods {
			data.Runtime[ds.name][m] = map[int]time.Duration{}
		}
		// Time the s-line edge-list computation alone (the SpGEMM
		// side is also just multiply+filter); relabeling is done once
		// outside the timed region.
		pre := hg.Preprocess(ds.h, hg.RelabelAscending)
		fmt.Fprintf(w, "Figure 11 analog — %s\n", ds.name)
		for _, s := range ds.sValues {
			t0 := time.Now()
			if _, err := spgemm.SLineFilter(ds.h, s, opt); err != nil {
				panic(err)
			}
			tFull := time.Since(t0)

			t1 := time.Now()
			if _, err := spgemm.SLineFilterUpper(ds.h, s, opt); err != nil {
				panic(err)
			}
			tUpper := time.Since(t1)

			cfg1 := mustNotation("1CA")
			cfg1.Workers = workers
			t2 := time.Now()
			core.SLineEdges(context.Background(), pre.H, s, cfg1)
			t1CA := time.Since(t2)

			cfg2 := mustNotation("2BA")
			cfg2.Workers = workers
			t3 := time.Now()
			core.SLineEdges(context.Background(), pre.H, s, cfg2)
			t2BA := time.Since(t3)

			data.Runtime[ds.name]["SpGEMM+Filter"][s] = tFull
			data.Runtime[ds.name]["SpGEMM+Filter+Upper"][s] = tUpper
			data.Runtime[ds.name]["1CA"][s] = t1CA
			data.Runtime[ds.name]["2BA"][s] = t2BA
			fmt.Fprintf(w, "  s=%-5d SpGEMM+Filter=%-12v +Upper=%-12v 1CA=%-12v 2BA=%v\n",
				s, tFull, tUpper, t1CA, t2BA)
		}
	}
	return data
}

// Table5Data reproduces Table V: end-to-end execution time of the
// framework plus label-propagation connected components for s = 1 (the
// clique-expansion regime) versus s = 8.
type Table5Data struct {
	// Time[dataset][s] = end-to-end time.
	Time map[string]map[int]time.Duration
	// Edges[dataset][s] = number of s-line graph edges (the memory
	// driver that causes the paper's s=1 OOMs).
	Edges map[string]map[int]int
}

// Table5 runs the 2CA configuration as in the paper.
func Table5(w io.Writer, scale Scale, workers int) Table5Data {
	data := Table5Data{
		Time:  map[string]map[int]time.Duration{},
		Edges: map[string]map[int]int{},
	}
	sets := []struct {
		name string
		h    *hg.Hypergraph
	}{
		{"Friendster", FriendsterAnalog(scale)},
		{"LiveJournal", LiveJournalAnalog(scale)},
		{"com-Orkut", OrkutAnalog(scale)},
		{"Web", WebAnalog(scale)},
	}
	for _, ds := range sets {
		data.Time[ds.name] = map[int]time.Duration{}
		data.Edges[ds.name] = map[int]int{}
		for _, s := range []int{1, 8} {
			cfg := mustNotation("2CA")
			cfg.Workers = workers
			t0 := time.Now()
			out, _ := core.RunBatch(context.Background(), ds.h, []int{s}, core.PipelineConfig{Core: cfg})
			res := out[s]
			algo.LabelPropagationCC(res.Graph, par.Options{Workers: workers})
			data.Time[ds.name][s] = time.Since(t0)
			data.Edges[ds.name][s] = res.Graph.NumEdges()
		}
		fmt.Fprintf(w, "Table V analog — %-13s s=1: %-12v (%9d edges)   s=8: %-12v (%9d edges)\n",
			ds.name, data.Time[ds.name][1], data.Edges[ds.name][1],
			data.Time[ds.name][8], data.Edges[ds.name][8])
	}
	return data
}

// Table3 prints the twelve configuration notations (Table III).
func Table3(w io.Writer) []string {
	fmt.Fprintln(w, "Table III — algorithm / partitioning / relabel-by-degree notations")
	for _, n := range core.AllNotations() {
		cfg := mustNotation(n)
		algoName := "Algo. 1 (set intersection)"
		if cfg.Algorithm == core.AlgoHashmap {
			algoName = "Algo. 2 (hashmap)"
		}
		part := "Blocked"
		if cfg.Partition == par.Cyclic {
			part = "Cyclic"
		}
		relabel := map[hg.RelabelOrder]string{
			hg.RelabelNone:       "No",
			hg.RelabelAscending:  "Ascending",
			hg.RelabelDescending: "Descending",
		}[cfg.Relabel]
		fmt.Fprintf(w, "  %-4s %-28s %-8s relabel=%s\n", n, algoName, part, relabel)
	}
	return core.AllNotations()
}

// Table4 prints the input characteristics of every dataset analog.
func Table4(w io.Writer, scale Scale) []hg.Stats {
	fmt.Fprintln(w, "Table IV analog — input characteristics")
	var out []hg.Stats
	for _, ds := range Table4Datasets(scale) {
		st := hg.ComputeStats(ds.Name, ds.H)
		out = append(out, st)
		fmt.Fprintf(w, "  %v\n", st)
	}
	return out
}
