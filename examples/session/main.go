// Session demonstrates the multi-resolution query workflow the serving
// layer is built for: register a dataset once, warm an s-sweep with one
// background-priority query, then answer repeated s-line-graph and
// s-measure queries from the shared result cache.
//
// Run with: go run ./examples/session
package main

import (
	"context"
	"fmt"
	"log"

	"hyperline"
)

func main() {
	// A small community-structured hypergraph: three groups of
	// overlapping hyperedges plus a bridge.
	edges := [][]uint32{
		{0, 1, 2, 3}, {1, 2, 3, 4}, {0, 2, 3, 4},
		{10, 11, 12, 13}, {11, 12, 13, 14}, {10, 12, 13, 14},
		{20, 21, 22}, {21, 22, 23},
		{4, 10}, // bridge
	}
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("communities", hyperline.FromEdgeSlices(edges, 24))

	// One batched pass precomputes every projection of the sweep; at
	// background priority it would be shed, not queued, if the session
	// had admission limits and was saturated.
	ctx := context.Background()
	sweep := []int{1, 2, 3}
	if _, err := sess.Execute(ctx, hyperline.Query{
		Dataset: "communities", S: sweep, Priority: hyperline.PriorityBackground,
	}); err != nil {
		log.Fatal(err)
	}

	// Repeats are free: each of these hits the cache, no pipeline run.
	for _, s := range sweep {
		qr, err := sess.Execute(ctx, hyperline.Query{Dataset: "communities", S: []int{s}})
		if err != nil {
			log.Fatal(err)
		}
		res := qr.Entries[0].Result
		cc := hyperline.SConnectedComponents(res)
		fmt.Printf("s=%d: %d nodes, %d edges, %d components\n",
			s, res.Graph.NumNodes(), res.Graph.NumEdges(), cc.Count)
	}

	qr, err := sess.Execute(ctx, hyperline.Query{Dataset: "communities", S: []int{2}})
	if err != nil {
		log.Fatal(err)
	}
	res := qr.Entries[0].Result
	bc := hyperline.SBetweenness(res, 0)
	best, bestScore := uint32(0), -1.0
	for u, score := range bc {
		if score > bestScore {
			best, bestScore = res.HyperedgeID(uint32(u)), score
		}
	}
	fmt.Printf("most central hyperedge at s=2: %d\n", best)

	st := sess.CacheStats()
	fmt.Printf("cache: %d entries, %d hits, %d misses\n", st.Entries, st.Hits, st.Misses)
}
