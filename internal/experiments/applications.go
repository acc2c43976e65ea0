package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"hyperline/internal/algo"
	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/measure"
	"hyperline/internal/par"
)

// Fig2 prints the s-line graphs of the paper's running example
// (Figures 1 and 2) for s = 1..4 and returns the per-s edge lists.
func Fig2(w io.Writer) map[int][]core.Edge {
	h := hg.FromEdgeSlices([][]uint32{
		{0, 1, 2},       // 1: {a,b,c}
		{1, 2, 3},       // 2: {b,c,d}
		{0, 1, 2, 3, 4}, // 3: {a,b,c,d,e}
		{4, 5},          // 4: {e,f}
	}, 6)
	out := map[int][]core.Edge{}
	fmt.Fprintln(w, "Figure 2 — hyperedge s-line graphs of the example hypergraph")
	for s := 1; s <= 4; s++ {
		edges, _, _ := core.SLineEdges(context.Background(), h, s, core.Config{})
		out[s] = edges
		fmt.Fprintf(w, "  s=%d:", s)
		if len(edges) == 0 {
			fmt.Fprint(w, " (no edges)")
		}
		for _, e := range edges {
			// Report in the paper's 1-based hyperedge labels.
			fmt.Fprintf(w, " {%d,%d}w%d", e.U+1, e.V+1, e.W)
		}
		fmt.Fprintln(w)
	}
	return out
}

// Fig4Data reproduces Figure 4: the number of edges in the s-clique
// graph versus s for four datasets (log-log decay).
type Fig4Data struct {
	// Edges[dataset][s] = edge count of the s-clique graph.
	Edges map[string]map[int]int
}

// Fig4SValues is the s sweep used for the figure.
var Fig4SValues = []int{1, 2, 4, 8, 16, 32, 64, 100}

// Fig4 computes s-clique graphs (s-line graphs of the dual) with the
// ensemble algorithm.
func Fig4(w io.Writer, scale Scale, workers int) Fig4Data {
	data := Fig4Data{Edges: map[string]map[int]int{}}
	sets := []struct {
		name string
		h    *hg.Hypergraph
	}{
		{"disGeNet", DisGeNetAnalog(scale)},
		{"condMat", CondMatAnalog(scale)},
		{"compBoard", CompBoardAnalog(scale)},
		{"lesMis", LesMisAnalog(scale)},
	}
	for _, ds := range sets {
		dual := ds.h.Dual()
		cfg := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoEnsemble, Workers: workers}}
		results, _ := core.RunBatch(context.Background(), dual, Fig4SValues, cfg)
		data.Edges[ds.name] = map[int]int{}
		fmt.Fprintf(w, "Figure 4 analog — %s: #edges in s-clique graph\n", ds.name)
		for _, s := range Fig4SValues {
			n := results[s].Graph.NumEdges()
			data.Edges[ds.name][s] = n
			fmt.Fprintf(w, "  s=%-4d edges=%d\n", s, n)
		}
	}
	return data
}

// Table2Data reproduces Table II: ordinal rank and score percentile of
// the top diseases by PageRank in the clique expansion (s=1) and the
// s-clique graphs for s = 10 and 100.
type Table2Data struct {
	SValues []int
	// Rank[s][disease] = 1-based ordinal rank of the disease
	// (hyperedge ID in the disease-gene hypergraph) by PageRank.
	Rank map[int]map[uint32]int
	// Percentile[s][disease] = score percentile (0-100).
	Percentile map[int]map[uint32]float64
	// Top5AtS1 are the five top-ranked diseases in the clique
	// expansion.
	Top5AtS1 []uint32
	// EdgeCounts[s] = edges in each s-clique graph (2.7M / 246K / 12K
	// in the paper).
	EdgeCounts map[int]int
	// Top400Retention[s] = fraction of the s=1 top-400 set still in
	// the top 400 at s (92% / 88% in the paper; scaled to top-N/10 of
	// our smaller analog).
	Top400Retention map[int]float64
}

// Table2 ranks the diseases of the disGeNet analog. The "s-clique
// graph of diseases" links diseases sharing ≥ s genes, i.e. the s-line
// graph of the disease-gene hypergraph itself (diseases are
// hyperedges).
func Table2(w io.Writer, scale Scale, workers int) Table2Data {
	h := DisGeNetAnalog(scale)
	data := Table2Data{
		SValues:         []int{1, 10, 100},
		Rank:            map[int]map[uint32]int{},
		Percentile:      map[int]map[uint32]float64{},
		EdgeCounts:      map[int]int{},
		Top400Retention: map[int]float64{},
	}
	opt := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoEnsemble, Workers: workers}}
	results, _ := core.RunBatch(context.Background(), h, data.SValues, opt)

	topSets := map[int][]uint32{}
	for _, s := range data.SValues {
		res := results[s]
		pr := algo.PageRank(res.Graph, algo.PageRankOptions{Par: par.Options{Workers: workers}})
		type scored struct {
			disease uint32
			score   float64
		}
		ranked := make([]scored, len(pr))
		for node, p := range pr {
			ranked[node] = scored{res.HyperedgeIDs[node], p}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].disease < ranked[j].disease
		})
		data.Rank[s] = map[uint32]int{}
		data.Percentile[s] = map[uint32]float64{}
		n := len(ranked)
		for i, sc := range ranked {
			data.Rank[s][sc.disease] = i + 1
			data.Percentile[s][sc.disease] = 100 * float64(n-i) / float64(n)
		}
		data.EdgeCounts[s] = res.Graph.NumEdges()
		topN := n / 10
		if topN < 5 {
			topN = min(5, n)
		}
		tops := make([]uint32, 0, topN)
		for i := 0; i < topN && i < n; i++ {
			tops = append(tops, ranked[i].disease)
		}
		topSets[s] = tops
	}
	// Top-5 at s=1.
	type rankPair struct {
		disease uint32
		rank    int
	}
	var s1 []rankPair
	for d, r := range data.Rank[1] {
		s1 = append(s1, rankPair{d, r})
	}
	sort.Slice(s1, func(i, j int) bool { return s1[i].rank < s1[j].rank })
	for i := 0; i < 5 && i < len(s1); i++ {
		data.Top5AtS1 = append(data.Top5AtS1, s1[i].disease)
	}
	// Retention of the s=1 top decile in higher-order rankings.
	base := map[uint32]bool{}
	for _, d := range topSets[1] {
		base[d] = true
	}
	for _, s := range data.SValues[1:] {
		kept := 0
		for _, d := range topSets[s] {
			if base[d] {
				kept++
			}
		}
		if len(base) > 0 {
			data.Top400Retention[s] = float64(kept) / float64(len(base))
		}
	}

	fmt.Fprintf(w, "Table II analog — disease PageRank rank (percentile) across s-clique graphs\n")
	fmt.Fprintf(w, "  edges: s=1: %d, s=10: %d, s=100: %d\n",
		data.EdgeCounts[1], data.EdgeCounts[10], data.EdgeCounts[100])
	for _, d := range data.Top5AtS1 {
		fmt.Fprintf(w, "  disease %-5d", d)
		for _, s := range data.SValues {
			fmt.Fprintf(w, "  s=%-3d: %3d (%.2f%%)", s, data.Rank[s][d], data.Percentile[s][d])
		}
		fmt.Fprintln(w)
	}
	for _, s := range data.SValues[1:] {
		fmt.Fprintf(w, "  top-decile retention at s=%d: %.0f%%\n", s, 100*data.Top400Retention[s])
	}
	return data
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Fig5Data reproduces Figure 5 / §V-A: the virology gene line graphs
// at s = 1, 3, 5 and the genes the 5-line graph isolates.
type Fig5Data struct {
	SValues []int
	// Nodes/Edges[s]: size of each s-line graph.
	Nodes, Edges map[int]int
	// Components[s]: number of s-connected components.
	Components map[int]int
	// TopGenes: hyperedge IDs with the highest s-betweenness in the
	// densest high-s component, s = max(SValues).
	TopGenes []uint32
	// TopGeneNames maps the recovered IDs through VirologyHubNames.
	TopGeneNames []string
}

// Fig5 computes the ensemble and identifies the most central genes at
// s = 5, which must be the planted hubs (the paper's ISG15, IL6, ATF3,
// RSAD2, USP18, IFIT1).
func Fig5(w io.Writer, scale Scale, workers int) Fig5Data {
	h := VirologyAnalog(scale)
	data := Fig5Data{
		SValues:    []int{1, 3, 5},
		Nodes:      map[int]int{},
		Edges:      map[int]int{},
		Components: map[int]int{},
	}
	opt := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoEnsemble, Workers: workers}}
	results, _ := core.RunBatch(context.Background(), h, data.SValues, opt)
	for _, s := range data.SValues {
		res := results[s]
		data.Nodes[s] = res.Graph.NumNodes()
		data.Edges[s] = res.Graph.NumEdges()
		data.Components[s] = algo.ConnectedComponents(res.Graph).Count
	}
	// Betweenness at the largest s; hubs share >100 conditions so at
	// s=5 they are densely interconnected while noise genes fall away.
	sMax := data.SValues[len(data.SValues)-1]
	res := results[sMax]
	bc := algo.Betweenness(res.Graph, par.Options{Workers: workers})
	type scored struct {
		gene  uint32
		score float64
		deg   int
	}
	ranked := make([]scored, res.Graph.NumNodes())
	for node := range ranked {
		ranked[node] = scored{
			gene:  res.HyperedgeIDs[node],
			score: bc[node],
			deg:   res.Graph.Degree(uint32(node)),
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		if ranked[i].deg != ranked[j].deg {
			return ranked[i].deg > ranked[j].deg
		}
		return ranked[i].gene < ranked[j].gene
	})
	for i := 0; i < len(ranked) && i < len(VirologyHubNames); i++ {
		data.TopGenes = append(data.TopGenes, ranked[i].gene)
		if int(ranked[i].gene) < len(VirologyHubNames) {
			data.TopGeneNames = append(data.TopGeneNames, VirologyHubNames[ranked[i].gene])
		} else {
			data.TopGeneNames = append(data.TopGeneNames, fmt.Sprintf("gene-%d", ranked[i].gene))
		}
	}

	fmt.Fprintln(w, "Figure 5 analog — virology gene line graphs")
	for _, s := range data.SValues {
		fmt.Fprintf(w, "  s=%d: %d genes, %d edges, %d components\n",
			s, data.Nodes[s], data.Edges[s], data.Components[s])
	}
	fmt.Fprintf(w, "  most central genes at s=%d: %v\n", sMax, data.TopGeneNames)
	return data
}

// Fig6Data reproduces Figure 6: normalized algebraic connectivity of
// the s-line graphs of the author-paper network for s = 1..16.
type Fig6Data struct {
	SValues      []int
	Connectivity map[int]float64
	NonEmptyMaxS int // largest s with a non-singleton component
}

// Fig6 computes the ensemble of s-line graphs and λ₂ of each.
func Fig6(w io.Writer, scale Scale, workers int) Fig6Data {
	h := CondMatAnalog(scale)
	data := Fig6Data{Connectivity: map[int]float64{}}
	for s := 1; s <= 16; s++ {
		data.SValues = append(data.SValues, s)
	}
	opt := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoEnsemble, Workers: workers}}
	results, _ := core.RunBatch(context.Background(), h, data.SValues, opt)
	sweep := make([]*core.PipelineResult, len(data.SValues))
	for i, s := range data.SValues {
		sweep[i] = results[s]
	}
	// λ₂ of an edgeless projection is 0, so the whole ensemble goes
	// through the sweep scheduler.
	m, _ := measure.Get("connectivity")
	vals, _ := measure.ComputeSweep(context.Background(), m, nil, sweep, par.Options{Workers: workers})
	fmt.Fprintln(w, "Figure 6 analog — normalized algebraic connectivity, author-paper network")
	for i, res := range sweep {
		lam := *vals[i].Scalar
		if res.Graph.NumEdges() > 0 {
			data.NonEmptyMaxS = res.S
		}
		data.Connectivity[res.S] = lam
		fmt.Fprintf(w, "  s=%-3d λ₂=%.4f (nodes=%d edges=%d)\n",
			res.S, lam, res.Graph.NumNodes(), res.Graph.NumEdges())
	}
	return data
}

// IMDBData reproduces §V-C: the s=101-connected components of the
// actor-movie network and the s-betweenness centralities inside them.
type IMDBData struct {
	S int
	// Components lists the non-singleton s-connected components as
	// actor-name lists.
	Components [][]string
	// Centrality[name] = normalized betweenness of planted actors
	// with non-zero score.
	Centrality map[string]float64
	// CCTime and BCTime are the metric-stage timings the paper quotes
	// (4µs / 15µs on its hardware).
	CCTime, BCTime time.Duration
}

// IMDB uncovers the planted collaboration groups.
func IMDB(w io.Writer, scale Scale, workers int) IMDBData {
	h := IMDBAnalog(scale)
	const s = 101
	data := IMDBData{S: s, Centrality: map[string]float64{}}
	cfg := core.PipelineConfig{Core: core.Config{Workers: workers}}
	out, _ := core.RunBatch(context.Background(), h, []int{s}, cfg)
	res := out[s]

	t0 := time.Now()
	cc := algo.ConnectedComponents(res.Graph)
	data.CCTime = time.Since(t0)

	t1 := time.Now()
	bc := algo.Betweenness(res.Graph, par.Options{Workers: workers})
	data.BCTime = time.Since(t1)
	norm := algo.Normalize(bc)

	name := func(id uint32) string {
		if int(id) < len(IMDBActorNames) {
			return IMDBActorNames[id]
		}
		return fmt.Sprintf("actor-%d", id)
	}
	for _, members := range cc.Members() {
		if len(members) < 2 {
			continue
		}
		var names []string
		for _, node := range members {
			names = append(names, name(res.HyperedgeIDs[node]))
		}
		data.Components = append(data.Components, names)
	}
	for node := 0; node < res.Graph.NumNodes(); node++ {
		if norm[node] > 0 {
			data.Centrality[name(res.HyperedgeIDs[node])] = norm[node]
		}
	}

	fmt.Fprintf(w, "§V-C analog — IMDB %d-connected components (compute: %v)\n", s, data.CCTime)
	for _, comp := range data.Components {
		fmt.Fprintf(w, "  %v\n", comp)
	}
	fmt.Fprintf(w, "  %d-betweenness centrality (compute: %v)\n", s, data.BCTime)
	for n, c := range data.Centrality {
		fmt.Fprintf(w, "  %s (%.4f)\n", n, c)
	}
	return data
}
