package hyperline_test

import (
	"context"
	"fmt"

	"hyperline"
)

// ExampleExecute computes the 2-line graph of the paper's running
// example: hyperedges sharing at least two vertices become adjacent.
func ExampleExecute() {
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2},       // hyperedge 0: {a,b,c}
		{1, 2, 3},       // hyperedge 1: {b,c,d}
		{0, 1, 2, 3, 4}, // hyperedge 2: {a,b,c,d,e}
		{4, 5},          // hyperedge 3: {e,f}
	}, 6)
	qr, _ := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: h, S: []int{2}})
	res := qr.Entries[0].Result
	for _, e := range res.Graph.Edges() {
		fmt.Printf("hyperedge %d -- %d (overlap %d)\n",
			res.HyperedgeID(e.U), res.HyperedgeID(e.V), e.W)
	}
	// Output:
	// hyperedge 0 -- 1 (overlap 2)
	// hyperedge 0 -- 2 (overlap 3)
	// hyperedge 1 -- 2 (overlap 3)
}

// ExampleExecute_clique computes the clique expansion (the 1-clique
// graph) and reads off adj(b, c), the number of hyperedges containing
// both vertices.
func ExampleExecute_clique() {
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
	qr, _ := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, Kind: hyperline.KindClique, S: []int{1},
		Options: hyperline.Options{NoSqueeze: true},
	})
	clique := qr.Entries[0].Result
	fmt.Println("edges:", clique.Graph.NumEdges())
	fmt.Println("adj(b,c):", clique.Graph.Weight(1, 2))
	// Output:
	// edges: 11
	// adj(b,c): 3
}

// ExampleExecute_sweep sweeps s in one query and reports when the line
// graph becomes empty.
func ExampleExecute_sweep() {
	h := hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
	qr, _ := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: h, S: []int{1, 2, 3, 4}})
	for _, e := range qr.Entries {
		fmt.Printf("s=%d: %d edges\n", e.S, e.Result.Graph.NumEdges())
	}
	// Output:
	// s=1: 4 edges
	// s=2: 3 edges
	// s=3: 2 edges
	// s=4: 0 edges
}

// ExampleSession_Execute queries one dataset at several s values
// through a caching session: each distinct projection runs the pipeline
// once and repeats are served from the LRU.
func ExampleSession_Execute() {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6))
	ctx := context.Background()
	sweep, _ := sess.Execute(ctx, hyperline.Query{Dataset: "paper", S: []int{1, 2, 3}})
	for _, e := range sweep.Entries {
		fmt.Printf("s=%d: %d edges\n", e.S, e.Result.Graph.NumEdges())
	}
	hit, _ := sess.Execute(ctx, hyperline.Query{Dataset: "paper", S: []int{2}}) // cache hit
	fmt.Println("components at s=2:", hyperline.SConnectedComponents(hit.Entries[0].Result).Count)
	st := sess.CacheStats()
	fmt.Println("cached projections:", st.Entries)
	// Output:
	// s=1: 4 edges
	// s=2: 3 edges
	// s=3: 2 edges
	// components at s=2: 1
	// cached projections: 3
}
