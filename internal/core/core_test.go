package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// paperExample is the hypergraph of Figure 1: V = {a..f} = {0..5},
// hyperedges 1:{a,b,c}, 2:{b,c,d}, 3:{a,b,c,d,e}, 4:{e,f} with IDs 0-3.
func paperExample() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{0, 1, 2, 3, 4},
		{4, 5},
	}, 6)
}

// TestPaperFigure2 pins the s-line graphs of Figure 2 for s = 1..4,
// including the overlap weights ("strength of connection").
func TestPaperFigure2(t *testing.T) {
	h := paperExample()
	want := map[int][]Edge{
		1: {
			{U: 0, V: 1, W: 2}, {U: 0, V: 2, W: 3},
			{U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1},
		},
		2: {{U: 0, V: 1, W: 2}, {U: 0, V: 2, W: 3}, {U: 1, V: 2, W: 3}},
		3: {{U: 0, V: 2, W: 3}, {U: 1, V: 2, W: 3}},
		4: nil,
	}
	for s, wantEdges := range want {
		got, stats, _ := SLineEdges(context.Background(), h, s, Config{})
		if !reflect.DeepEqual(got, wantEdges) && !(len(got) == 0 && len(wantEdges) == 0) {
			t.Errorf("s=%d: got %v, want %v", s, got, wantEdges)
		}
		if stats.SetIntersections != 0 {
			t.Errorf("s=%d: Algorithm 2 performed %d set intersections, want 0",
				s, stats.SetIntersections)
		}
	}
}

func TestAlgorithm1MatchesOnExample(t *testing.T) {
	h := paperExample()
	for s := 1; s <= 4; s++ {
		want := NaiveAllPairs(h, s)
		got, stats, _ := SLineEdges(context.Background(), h, s, Config{Algorithm: AlgoSetIntersection, DisableShortCircuit: true})
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Errorf("s=%d: algo1 got %v, want %v", s, got, want)
		}
		if len(want) > 0 && stats.SetIntersections == 0 {
			t.Errorf("s=%d: Algorithm 1 reported zero set intersections", s)
		}
	}
}

func stripWeights(edges []Edge) [][2]uint32 {
	out := make([][2]uint32, len(edges))
	for i, e := range edges {
		out[i] = [2]uint32{e.U, e.V}
	}
	return out
}

func randomHypergraph(r *rand.Rand, n, m, maxSize int) *hg.Hypergraph {
	edges := make([][]uint32, m)
	for e := range edges {
		size := 1 + r.Intn(maxSize)
		seen := map[uint32]bool{}
		for len(seen) < size {
			seen[uint32(r.Intn(n))] = true
		}
		for v := range seen {
			edges[e] = append(edges[e], v)
		}
	}
	return hg.FromEdgeSlices(edges, n)
}

// TestAllAlgorithmsAgree is the central cross-validation property: on
// random hypergraphs, Algorithm 1 (both intersection modes), Algorithm
// 2, the ensemble, and the naive all-pairs oracle
// produce the same s-line graphs under every partitioning strategy.
func TestAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 30, 40, 8)
		s := 1 + int(sRaw%5)
		want := NaiveAllPairs(h, s)
		wantPairs := stripWeights(want)

		configs := []Config{
			{Algorithm: AlgoHashmap},
			{Algorithm: AlgoHashmap, Partition: par.Cyclic, Workers: 3},
			{Algorithm: AlgoHashmap, Partition: par.Blocked, Grain: 1, Workers: 5},
			{Algorithm: AlgoSetIntersection, DisableShortCircuit: true},
			{Algorithm: AlgoSetIntersection, DisableShortCircuit: true, Partition: par.Cyclic},
			{Algorithm: AlgoHashmap, DisablePruning: true},
			{Algorithm: AlgoSetIntersection, DisableShortCircuit: true, DisablePruning: true},
		}
		for _, cfg := range configs {
			got, _, _ := SLineEdges(context.Background(), h, s, cfg)
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Logf("config %+v disagrees: got %v want %v", cfg, got, want)
				return false
			}
		}
		// Short-circuit mode: same pairs, weights may be clamped at s.
		scGot, _, _ := SLineEdges(context.Background(), h, s, Config{Algorithm: AlgoSetIntersection})
		if !reflect.DeepEqual(stripWeights(scGot), wantPairs) &&
			!(len(scGot) == 0 && len(wantPairs) == 0) {
			t.Logf("short-circuit pairs disagree")
			return false
		}
		// Ensemble must match per-s runs exactly (weights included).
		ens, ensStats, _ := EnsembleEdges(context.Background(), h, []int{s, s + 1, 1}, Config{})
		if ensStats.SetIntersections != 0 {
			return false
		}
		for _, si := range []int{s, s + 1, 1} {
			single, _, _ := SLineEdges(context.Background(), h, si, Config{})
			if !reflect.DeepEqual(ens[si], single) && !(len(ens[si]) == 0 && len(single) == 0) {
				t.Logf("ensemble s=%d disagrees", si)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	h := randomHypergraph(r, 100, 150, 10)
	base, _, _ := SLineEdges(context.Background(), h, 3, Config{Workers: 1})
	for _, workers := range []int{2, 4, 8, 16} {
		for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
			got, _, _ := SLineEdges(context.Background(), h, 3, Config{Workers: workers, Partition: strat})
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d strategy=%v changed the result", workers, strat)
			}
		}
	}
}

func TestDegreePruningStats(t *testing.T) {
	// Hyperedges smaller than s must be pruned, and pruning must not
	// change results.
	h := paperExample()
	_, stats, _ := SLineEdges(context.Background(), h, 3, Config{})
	// Sizes are 3,3,5,2: exactly one edge (size 2) is pruned at s=3.
	if stats.Pruned != 1 {
		t.Fatalf("pruned = %d, want 1", stats.Pruned)
	}
	withP, _, _ := SLineEdges(context.Background(), h, 3, Config{})
	withoutP, _, _ := SLineEdges(context.Background(), h, 3, Config{DisablePruning: true})
	if !reflect.DeepEqual(withP, withoutP) {
		t.Fatal("pruning changed the result")
	}
}

func TestWedgeStatsConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	h := randomHypergraph(r, 60, 80, 6)
	_, stats, _ := SLineEdges(context.Background(), h, 1, Config{Workers: 4})
	var sum int64
	for _, w := range stats.WedgesPerWorker {
		sum += w
	}
	if sum != stats.Wedges {
		t.Fatalf("per-worker wedges sum %d != total %d", sum, stats.Wedges)
	}
	if stats.Wedges == 0 {
		t.Fatal("expected non-zero wedge visits")
	}
	// Wedge count is invariant across worker counts at s=1 (no pruning
	// difference).
	_, stats2, _ := SLineEdges(context.Background(), h, 1, Config{Workers: 1})
	if stats2.Wedges != stats.Wedges {
		t.Fatalf("wedges differ across worker counts: %d vs %d", stats2.Wedges, stats.Wedges)
	}
}

func TestEnsembleEmptyAndDuplicateS(t *testing.T) {
	h := paperExample()
	empty, _, _ := EnsembleEdges(context.Background(), h, nil, Config{})
	if len(empty) != 0 {
		t.Fatal("ensemble of no s values should be empty")
	}
	dup, _, _ := EnsembleEdges(context.Background(), h, []int{2, 2, 2}, Config{})
	if len(dup) != 1 {
		t.Fatalf("duplicate s values produced %d entries, want 1", len(dup))
	}
	single, _, _ := SLineEdges(context.Background(), h, 2, Config{})
	if !reflect.DeepEqual(dup[2], single) {
		t.Fatal("ensemble disagrees with single run")
	}
}

func TestSBelowOneClamped(t *testing.T) {
	h := paperExample()
	a, _, _ := SLineEdges(context.Background(), h, 0, Config{})
	b, _, _ := SLineEdges(context.Background(), h, 1, Config{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("s=0 should behave as s=1")
	}
	if NaiveAllPairs(h, 0) == nil {
		t.Fatal("naive s=0 should behave as s=1")
	}
}

func TestNotationRoundTrip(t *testing.T) {
	for _, n := range AllNotations() {
		cfg, err := ParseNotation(n)
		if err != nil {
			t.Fatalf("ParseNotation(%q): %v", n, err)
		}
		if got := cfg.Notation(); got != n {
			t.Fatalf("round trip %q -> %q", n, got)
		}
	}
	if len(AllNotations()) != 12 {
		t.Fatalf("Table III has 12 configurations, got %d", len(AllNotations()))
	}
	for _, bad := range []string{"", "9BA", "2XA", "2BZ", "2B", "22BA", "AUTO", "Spgemm", "spgemm", "SBN", "SCD"} {
		if _, err := ParseNotation(bad); err == nil {
			t.Errorf("ParseNotation(%q) should fail", bad)
		}
	}
}

// TestExtendedNotations covers the engine's additions to the Table III
// alphabet: Algorithm 3 ("3"), the planner ("A"), and the bare-word
// shorthand. The relabel position takes only the paper's A, D and N.
func TestExtendedNotations(t *testing.T) {
	for _, n := range []string{"3BA", "3CN", "ABN", "ACA"} {
		cfg, err := ParseNotation(n)
		if err != nil {
			t.Fatalf("ParseNotation(%q): %v", n, err)
		}
		if got := cfg.Notation(); got != n {
			t.Fatalf("round trip %q -> %q", n, got)
		}
	}
	auto, err := ParseNotation("auto")
	if err != nil || auto.Algorithm != AlgoAuto {
		t.Fatalf("ParseNotation(auto) = %+v, %v", auto, err)
	}
	// The word round-trips through the 3-character form.
	back, err := ParseNotation(auto.Notation())
	if err != nil || back != auto {
		t.Fatalf("word notation %q does not round trip: %+v, %v", auto.Notation(), back, err)
	}
	if Algorithm(9).String() != "?" {
		t.Fatal("unknown algorithm should stringify to ?")
	}
	if cfg, err := ParseNotation("2C*"); err == nil {
		t.Fatalf("ParseNotation(2C*) = %+v, want an error", cfg)
	}
}

func TestDefaultConfigNotation(t *testing.T) {
	var c Config
	if got := c.Notation(); got != "ABN" {
		t.Fatalf("zero Config notation = %q, want ABN (planner default)", got)
	}
}

func TestParseSValues(t *testing.T) {
	cases := map[string][]int{
		"8":        {8},
		"1,2,5":    {1, 2, 5},
		"2:6":      {2, 3, 4, 5, 6},
		"1,4:6,12": {1, 4, 5, 6, 12},
		" 3 , 5 ":  {3, 5},
	}
	for spec, want := range cases {
		got, err := ParseSValues(spec)
		if err != nil {
			t.Fatalf("ParseSValues(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseSValues(%q) = %v, want %v", spec, got, want)
		}
	}
	for _, bad := range []string{"", "0", "-1", "x", "5:2", "2:", ":4", "1,,2", "1:999999",
		// The expansion cap is a total across fields, not per range.
		"1:1000,2000:3000"} {
		if _, err := ParseSValues(bad); err == nil {
			t.Errorf("ParseSValues(%q) should fail", bad)
		}
	}
	if _, err := ParseSValues("1:1024"); err != nil {
		t.Errorf("ParseSValues at the cap should succeed: %v", err)
	}
}

func TestDistinctS(t *testing.T) {
	got := DistinctS([]int{4, 2, 4, 0, -3, 2, 7})
	if !reflect.DeepEqual(got, []int{1, 2, 4, 7}) {
		t.Fatalf("DistinctS = %v, want [1 2 4 7]", got)
	}
	if len(DistinctS(nil)) != 0 {
		t.Fatal("DistinctS(nil) should be empty")
	}
}

// NaiveAllPairs is the textbook "ijk" all-pairs construction used as a
// correctness oracle: it intersects every pair of hyperedges, ignoring
// the hypergraph structure entirely. Quadratic in |E| — only suitable
// for tiny inputs and tests.
func NaiveAllPairs(h *hg.Hypergraph, s int) []Edge {
	if s < 1 {
		s = 1
	}
	var edges []Edge
	m := h.NumEdges()
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if n := h.Inc(uint32(i), uint32(j)); n >= s {
				edges = append(edges, Edge{U: uint32(i), V: uint32(j), W: uint32(n)})
			}
		}
	}
	SortEdges(edges)
	return edges
}

// Notation returns the (extended) Table III shorthand for this
// configuration, e.g. "2BA" for Algorithm 2, blocked distribution,
// relabel ascending, or "ABN" for the planner default.
func (c Config) Notation() string {
	return c.Algorithm.String() + c.Partition.String() + c.Relabel.String()
}
