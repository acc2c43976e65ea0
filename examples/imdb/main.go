// IMDB reproduces the §V-C application: uncovering groups of actors
// who collaborated in more than 100 movies. Actors are hyperedges over
// movie vertices; the 101-line graph links actors sharing at least 101
// movies, its connected components are the collaboration groups, and
// s-betweenness centrality identifies each group's pivotal member (the
// paper finds Adoor Bhasi at the center of a star).
//
// The IMDB tables are not redistributable, so a synthetic analog is
// generated with the paper's reported component structure planted:
// four groups of sizes 5, 2, 2, 2 (labeled with the reported actor
// names), the first a star centered on "Adoor Bhasi".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"hyperline"
	"hyperline/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 1, "dataset scale multiplier")
	s := flag.Int("s", 101, "minimum shared movies")
	flag.Parse()

	h := experiments.IMDBAnalog(experiments.Scale(*scale))
	fmt.Printf("actor-movie hypergraph: %d actors (hyperedges), %d movies (vertices)\n",
		h.NumEdges(), h.NumVertices())

	t0 := time.Now()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: h, S: []int{*s}})
	if err != nil {
		log.Fatal(err)
	}
	res := qr.Entries[0].Result
	fmt.Printf("%d-line graph computed in %v: %d actors, %d edges\n",
		*s, time.Since(t0), res.Graph.NumNodes(), res.Graph.NumEdges())

	name := func(id uint32) string {
		if int(id) < len(experiments.IMDBActorNames) {
			return experiments.IMDBActorNames[id]
		}
		return fmt.Sprintf("actor-%d", id)
	}

	t1 := time.Now()
	cc := hyperline.SConnectedComponents(res)
	ccTime := time.Since(t1)
	fmt.Printf("\nHere are the %d-connected components: (compute %v)\n", *s, ccTime)
	for _, members := range cc.Members() {
		if len(members) < 2 {
			continue
		}
		fmt.Print("  [")
		for i, node := range members {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(name(res.HyperedgeID(node)))
		}
		fmt.Println("]")
	}

	t2 := time.Now()
	bc := hyperline.NormalizeBetweenness(hyperline.SBetweenness(res, 0))
	bcTime := time.Since(t2)
	fmt.Printf("\n%d-betweenness centrality (normalized, non-zero only): (compute %v)\n", *s, bcTime)
	for node := 0; node < res.Graph.NumNodes(); node++ {
		if bc[node] > 0 {
			fmt.Printf("  %s (%.4f)\n", name(res.HyperedgeID(uint32(node))), bc[node])
		}
	}
}
