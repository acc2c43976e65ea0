// Genes reproduces the §V-A application: identifying genes critical to
// pathogenic viral response from a transcriptomics hypergraph. Genes
// are hyperedges over 201 experimental-condition vertices; the s-line
// graphs at growing s strip away weakly co-perturbed genes until only
// the strongly co-perturbed hub genes remain (Fig. 5).
//
// The paper's virology dataset is not redistributable, so a synthetic
// analog with the same planted structure is generated: six hub genes
// (labeled with the paper's gene symbols) perturbed together in more
// than 100 shared conditions.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"hyperline"
	"hyperline/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 1, "dataset scale multiplier")
	flag.Parse()

	h := experiments.VirologyAnalog(experiments.Scale(*scale))
	fmt.Printf("gene-condition hypergraph: %d genes (hyperedges), %d conditions (vertices)\n",
		h.NumEdges(), h.NumVertices())

	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{1, 3, 5},
		Options: hyperline.Options{Algorithm: hyperline.AlgoEnsemble},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range qr.Entries {
		cc := hyperline.SConnectedComponents(e.Result)
		fmt.Printf("\ns=%d line graph: %d genes, %d edges, %d components\n",
			e.S, e.Result.Graph.NumNodes(), e.Result.Graph.NumEdges(), cc.Count)
	}

	// Rank genes in the 5-line graph (the sweep's last entry) by
	// s-betweenness centrality (degree as tiebreak): the planted hubs
	// emerge.
	res := qr.Entries[len(qr.Entries)-1].Result
	bc := hyperline.SBetweenness(res, 0)
	type ranked struct {
		gene  uint32
		score float64
		deg   int
	}
	var rs []ranked
	for node := 0; node < res.Graph.NumNodes(); node++ {
		rs = append(rs, ranked{res.HyperedgeID(uint32(node)), bc[node], res.Graph.Degree(uint32(node))})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].score != rs[j].score {
			return rs[i].score > rs[j].score
		}
		if rs[i].deg != rs[j].deg {
			return rs[i].deg > rs[j].deg
		}
		return rs[i].gene < rs[j].gene
	})
	fmt.Println("\nmost important genes by 5-line graph centrality:")
	for i := 0; i < len(rs) && i < 6; i++ {
		name := fmt.Sprintf("gene-%d", rs[i].gene)
		if int(rs[i].gene) < len(experiments.VirologyHubNames) {
			name = experiments.VirologyHubNames[rs[i].gene]
		}
		fmt.Printf("  %-8s betweenness=%.1f degree=%d\n", name, rs[i].score, rs[i].deg)
	}
}
