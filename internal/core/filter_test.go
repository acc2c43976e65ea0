package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hyperline/internal/gen"
	"hyperline/internal/par"
)

// naiveFilterGE is the obvious filtration the branch-free one is
// checked against.
func naiveFilterGE(edges []Edge, s int) []Edge {
	var out []Edge
	for _, e := range edges {
		if int(e.W) >= s {
			out = append(out, e)
		}
	}
	return out
}

func randomEdges(r *rand.Rand, n, maxW int) []Edge {
	out := make([]Edge, n)
	for i := range out {
		out[i] = Edge{U: uint32(i), V: uint32(i + 1), W: uint32(1 + r.Intn(maxW))}
	}
	return out
}

func TestFilterEdgesGE(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 100, filterChunk + 37, 5*filterChunk - 1} {
		edges := randomEdges(r, n, 10)
		for s := 1; s <= 11; s++ {
			want := naiveFilterGE(edges, s)
			for _, w := range []int{1, 2, 3} {
				got, err := filterEdgesGE(context.Background(), edges, s, par.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("n=%d s=%d workers=%d: filtration mismatch (%d edges, want %d)", n, s, w, len(got), len(want))
				}
			}
		}
	}
}

// TestFilterEdgesGESharesWhenAllPass: the all-pass filtration returns
// the input slice itself (the nested-ensemble fast path), and the
// none-pass filtration returns nil.
func TestFilterEdgesGESharesWhenAllPass(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 7}}
	got, err := filterEdgesGE(context.Background(), edges, 3, par.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &edges[0] {
		t.Fatal("all-pass filtration did not share the input slice")
	}
	got, err = filterEdgesGE(context.Background(), edges, 8, par.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("none-pass filtration = %v, want nil", got)
	}
}

// TestFilterEdgesGEBeyondUint32: weights are uint32, so nothing passes
// an s of 2³² or more; truncating s would filter at s mod 2³².
func TestFilterEdgesGEBeyondUint32(t *testing.T) {
	edges := randomEdges(rand.New(rand.NewSource(7)), 100, 10)
	for _, s := range []int{1 << 32, 1<<32 + 1, 1<<32 + 5, 1<<62 + 1} {
		got, err := filterEdgesGE(context.Background(), edges, s, par.Options{Workers: 2})
		if err != nil || got != nil {
			t.Fatalf("s=%d: got %d edges (%v), want none", s, len(got), err)
		}
	}
}

func TestFilterEdgesGECancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rand.New(rand.NewSource(5))
	if _, err := filterEdgesGE(ctx, randomEdges(r, 64, 10), 5, par.Options{}); err != context.Canceled {
		t.Fatalf("cancelled filtration returned %v, want context.Canceled", err)
	}
	// nil ctx never cancels.
	if _, err := filterEdgesGE(nil, randomEdges(r, 64, 10), 5, par.Options{}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFilterEdgesGE measures the branch-free s-filtration on a
// weight distribution near the threshold — the pattern that defeats
// the branch predictor in a naive filter.
func BenchmarkFilterEdgesGE(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	edges := randomEdges(r, 1<<20, 8)
	b.SetBytes(int64(len(edges)) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filterEdgesGE(nil, edges, 4, par.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStage3Kernel measures Algorithm 2's hot loop end to end
// (gather, count, emit, reset, block store, assembly), once per regime:
// dense on overlapping communities whose iterations cover most of the
// counter tail, sparse on small communities that touch a sliver of it,
// and sparse-large on the same generator at 16× the hyperedges, where
// the sparse walk's span over summary words is widest. The regime is
// forced so each name measures what it says; wedges/s is the rate the
// bench/ ledger calls core.mwedges_per_s. map runs the dense input
// through mapIter: dense vs map is the paper's §III-F pre-allocated vs
// dynamic table. dense and sparse also run at GOMAXPROCS workers, where
// per-worker state that shares a cache line with another worker's
// would show as a rate that does not scale. coldsingle is the bench/
// cold-single input (bench/dataset.go: the LiveJournal analog at 0.3 of
// scale 1) at its s = 8 under the rule's own regime choice. Every arm
// builds the hypergraph's position array before the timer starts, as
// every query after a dataset's first finds it built.
func BenchmarkStage3Kernel(b *testing.B) {
	overlapping := gen.CommunityConfig{Seed: 99, NumVertices: 4000, NumCommunities: 70,
		MeanCommunitySize: 45, EdgesPerCommunity: 50, Background: 1000}
	small := gen.CommunityConfig{Seed: 1003, NumVertices: 60000, NumCommunities: 3000,
		MeanCommunitySize: 6, MaxCommunitySize: 120, EdgesPerCommunity: 3, Background: 8000}
	large := small // the Friendster analog ×16: m = 272 000
	large.NumVertices *= 16
	large.NumCommunities *= 16
	large.Background *= 16
	liveJournal := gen.CommunityConfig{Seed: 1001, NumVertices: 9000, NumCommunities: 1050, MeanCommunitySize: 10,
		MaxCommunitySize: 1200, EdgesPerCommunity: 4, Background: 1200, Bridge: 0.25}
	procs := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name     string
		cfg      gen.CommunityConfig
		s        int
		run      string
		parallel bool
	}{
		{"dense", overlapping, 8, "dense", true},
		{"sparse", small, 1, "sparse", true},
		{"sparse-large", large, 1, "sparse", false},
		{"map", overlapping, 8, "map", false},
		{"coldsingle", liveJournal, 8, "rule", true},
	} {
		workers := []int{1}
		if bc.parallel && procs > 1 {
			workers = append(workers, procs)
		}
		for _, w := range workers {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, w), func(b *testing.B) {
				h := gen.Community(bc.cfg)
				if _, err := h.Positions(); err != nil {
					b.Fatal(err)
				}
				cfg := Config{Algorithm: AlgoHashmap, Workers: w}
				run := stage3Runs(0)[bc.run]
				var wedges int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, stats, err := run(h, bc.s, cfg)
					if err != nil {
						b.Fatal(err)
					}
					wedges += stats.Wedges
				}
				b.ReportMetric(float64(wedges)/b.Elapsed().Seconds(), "wedges/s")
			})
		}
	}
}
