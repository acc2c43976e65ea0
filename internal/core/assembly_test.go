package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// TestAssemblyDeterminism is the property test for the parallel edge
// assembly: SLineEdges output must be identical — element for element —
// across worker counts and workload distributions, and BuildSorted on
// that output must equal the defensive Build.
func TestAssemblyDeterminism(t *testing.T) {
	// Exercise the genuinely parallel paths (BuildSorted clamps to a
	// serial specialization when GOMAXPROCS is 1).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(20260728))
	strategies := []par.Strategy{par.Blocked, par.Cyclic}
	workerCounts := []int{1, 2, 8}

	for trial := 0; trial < 8; trial++ {
		numVertices := 20 + rng.Intn(120)
		numEdges := 10 + rng.Intn(150)
		h := randomHypergraph(rng, numVertices, numEdges, 10)
		for _, s := range []int{1, 2, 3} {
			reference, _, _ := SLineEdges(context.Background(), h, s, Config{Workers: 1})
			for _, strat := range strategies {
				for _, w := range workerCounts {
					cfg := Config{Workers: w, Partition: strat, Grain: 1 + rng.Intn(64)}
					got, _, _ := SLineEdges(context.Background(), h, s, cfg)
					if !edgeListsEqual(reference, got) {
						t.Fatalf("trial %d s=%d: %v workers=%d grain=%d diverges from single-worker reference",
							trial, s, strat, w, cfg.Grain)
					}
				}
			}
			// Algorithm 1 with exact weights must agree too.
			for _, strat := range strategies {
				for _, w := range workerCounts {
					cfg := Config{Algorithm: AlgoSetIntersection, DisableShortCircuit: true, Workers: w, Partition: strat}
					got, _, _ := SLineEdges(context.Background(), h, s, cfg)
					if !edgeListsEqual(reference, got) {
						t.Fatalf("trial %d s=%d: algo1 %v workers=%d diverges", trial, s, strat, w)
					}
				}
			}

			// Stage 4: the zero-copy parallel fast path must equal the
			// defensive Build on the assembly output.
			for _, squeeze := range []bool{false, true} {
				safe := graph.Build(h.NumEdges(), reference, squeeze)
				fast := graph.BuildSorted(h.NumEdges(), reference, squeeze, par.Options{Workers: 4})
				if safe.NumNodes() != fast.NumNodes() || safe.NumEdges() != fast.NumEdges() {
					t.Fatalf("trial %d s=%d squeeze=%v: BuildSorted shape mismatch", trial, s, squeeze)
				}
				for u := 0; u < safe.NumNodes(); u++ {
					aIDs, aWs := safe.Neighbors(uint32(u))
					bIDs, bWs := fast.Neighbors(uint32(u))
					if !reflect.DeepEqual(aIDs, bIDs) || !reflect.DeepEqual(aWs, bWs) {
						t.Fatalf("trial %d s=%d squeeze=%v node %d: BuildSorted adjacency mismatch", trial, s, squeeze, u)
					}
				}
			}
		}
	}
}

func edgeListsEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAssemblyOutputContract verifies the documented SLineEdges
// invariants that BuildSorted's fast path trusts: sorted by (U, V),
// unique keys, U < V.
func TestAssemblyOutputContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHypergraph(rng, 80, 120, 10)
	edges, _, _ := SLineEdges(context.Background(), h, 1, Config{Workers: 8})
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d violates U < V: %+v", i, e)
		}
		if i > 0 && !graph.EdgeLess(edges[i-1], e) {
			t.Fatalf("edges %d/%d out of order: %+v, %+v", i-1, i, edges[i-1], e)
		}
	}
}
