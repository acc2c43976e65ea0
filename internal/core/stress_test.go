package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// TestStressCrossValidation runs the full algorithm matrix on a
// moderately sized skewed hypergraph (not the toy random graphs of the
// property tests) and checks exact agreement. Skipped under -short.
func TestStressCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	h := gen.Community(gen.CommunityConfig{
		Seed: 4242, NumVertices: 5000, NumCommunities: 600,
		MeanCommunitySize: 8, EdgesPerCommunity: 3, Background: 800,
	})
	for _, s := range []int{2, 5, 12} {
		base, baseStats, _ := SLineEdges(context.Background(), h, s, Config{Workers: 1})
		if baseStats.SetIntersections != 0 {
			t.Fatal("algorithm 2 must not intersect")
		}
		configs := []Config{
			{Workers: 16},
			{Partition: par.Cyclic, Workers: 9},
			{Algorithm: AlgoSetIntersection, DisableShortCircuit: true, Workers: 16},
			{Algorithm: AlgoSetIntersection, DisableShortCircuit: true, Partition: par.Cyclic, Workers: 5, Grain: 7},
		}
		for _, cfg := range configs {
			got, _, _ := SLineEdges(context.Background(), h, s, cfg)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("s=%d cfg=%+v diverged (%d vs %d edges)", s, cfg, len(got), len(base))
			}
		}
		ens, _, _ := EnsembleEdges(context.Background(), h, []int{s}, Config{Workers: 12})
		if !reflect.DeepEqual(ens[s], base) {
			t.Fatalf("s=%d ensemble diverged", s)
		}
	}
}

// TestStressSingletonAndDuplicateEdges exercises degenerate hyperedge
// patterns: many duplicates (overlap = full size), singletons, and one
// giant edge covering everything.
func TestStressSingletonAndDuplicateEdges(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	edges := make([][]uint32, 0, 203)
	// 100 copies of the same 10-vertex edge.
	shared := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i := 0; i < 100; i++ {
		edges = append(edges, shared)
	}
	// 100 singletons.
	for i := 0; i < 100; i++ {
		edges = append(edges, []uint32{uint32(10 + r.Intn(90))})
	}
	// One edge covering all vertices.
	giant := make([]uint32, 100)
	for i := range giant {
		giant[i] = uint32(i)
	}
	edges = append(edges, giant)
	h := hg.FromEdgeSlices(edges, 100)

	// s = 10: the 100 duplicates pairwise overlap in 10 vertices, and
	// each also overlaps the giant edge in 10.
	got, _, _ := SLineEdges(context.Background(), h, 10, Config{})
	want := NaiveAllPairs(h, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicates: %d edges vs oracle %d", len(got), len(want))
	}
	if len(got) != 100*101/2 {
		t.Fatalf("expected complete graph over 101 edges, got %d", len(got))
	}
	// s = 11: only giant-vs-nothing; duplicates cap at 10.
	got11, _, _ := SLineEdges(context.Background(), h, 11, Config{})
	if len(got11) != 0 {
		t.Fatalf("s=11 should be empty, got %d edges", len(got11))
	}
}
