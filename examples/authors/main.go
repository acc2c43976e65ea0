// Authors reproduces the §V-B application: revealing relationships
// among authors of a condensed-matter-style author-paper network via
// an ensemble of s-line graphs and their normalized algebraic
// connectivity (Fig. 6).
//
// Papers are hyperedges over author vertices; two papers are
// s-incident when they share at least s authors. The normalized
// algebraic connectivity λ₂ of each Ls(H) quantifies how strongly its
// largest component holds together: dips at moderate s show sparse
// collaboration, and the climb at high s shows that prolific repeat
// collaborations form densely connected cores.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"hyperline"
	"hyperline/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 1, "dataset scale multiplier")
	maxS := flag.Int("maxs", 16, "largest s value")
	flag.Parse()

	h := experiments.CondMatAnalog(experiments.Scale(*scale))
	fmt.Printf("author-paper hypergraph: %d papers (hyperedges), %d authors (vertices), %d inclusions\n",
		h.NumEdges(), h.NumVertices(), h.Incidences())

	var sValues []int
	for s := 1; s <= *maxS; s++ {
		sValues = append(sValues, s)
	}
	// One query for the whole sweep, pinned to the ensemble algorithm
	// (Algorithm 3): a single counting pass serves every s.
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: sValues,
		Options: hyperline.Options{Algorithm: hyperline.AlgoEnsemble},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n  s   nodes   edges   components   norm. algebraic connectivity")
	for _, e := range qr.Entries {
		s, res := e.S, e.Result
		if res.Graph.NumEdges() == 0 {
			fmt.Printf("  %-3d %7d %7d   (empty: no two papers share %d authors)\n",
				s, res.Graph.NumNodes(), res.Graph.NumEdges(), s)
			continue
		}
		cc := hyperline.SConnectedComponents(res)
		lam := hyperline.NormalizedAlgebraicConnectivity(res.Graph)
		fmt.Printf("  %-3d %7d %7d %12d   %.4f\n",
			s, res.Graph.NumNodes(), res.Graph.NumEdges(), cc.Count, lam)
	}
}
