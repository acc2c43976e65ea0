package serve

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

func paperExample() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
}

// randomHypergraph builds a reproducible hypergraph big enough that a
// pipeline run takes real work (so concurrent requests overlap).
func randomHypergraph(seed int64, edges, vertices, meanSize int) *hg.Hypergraph {
	r := rand.New(rand.NewSource(seed))
	es := make([][]uint32, edges)
	for e := range es {
		size := 1 + r.Intn(2*meanSize)
		seen := map[uint32]bool{}
		for k := 0; k < size; k++ {
			seen[uint32(r.Intn(vertices))] = true
		}
		for v := range seen {
			es[e] = append(es[e], v)
		}
	}
	return hg.FromEdgeSlices(es, vertices)
}

func TestUnknownDataset(t *testing.T) {
	svc := New(Config{})
	if _, err := svc.Query(context.Background(), lineQ("nope", core.PipelineConfig{}, 2)); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("want ErrUnknownDataset, got %v", err)
	}
	if _, err := svc.Stats("nope"); err == nil {
		t.Fatal("want error for unknown dataset stats")
	}
}

func TestRejectsBadS(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	for _, sValues := range [][]int{nil, {0}, {2, 0}} {
		for _, pri := range []Priority{PriorityInteractive, PriorityBackground} {
			q := lineQ("h", core.PipelineConfig{}, sValues...)
			q.Priority = pri
			if _, err := svc.Query(context.Background(), q); err == nil {
				t.Fatalf("want error for s=%v (priority %v)", sValues, pri)
			}
		}
	}
}

func TestRepeatedQueryHitsCache(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	cfg := core.PipelineConfig{}

	e1 := mustQuery(t, svc, lineQ("h", cfg, 2)).Entries[0]
	if e1.Cached {
		t.Fatal("first request must be a miss")
	}
	e2 := mustQuery(t, svc, lineQ("h", cfg, 2)).Entries[0]
	if !e2.Cached {
		t.Fatal("second request must be a hit")
	}
	if e1.Res != e2.Res {
		t.Fatal("cache hit must return the identical result pointer")
	}
	want := direct(t, paperExample(), 2, cfg)
	if !reflect.DeepEqual(e2.Res.Graph.Edges(), want.Graph.Edges()) {
		t.Fatal("cached edges differ from a direct pipeline run")
	}
	if !reflect.DeepEqual(e2.Res.HyperedgeIDs, want.HyperedgeIDs) {
		t.Fatal("cached hyperedge IDs differ from a direct pipeline run")
	}
}

func TestExecutionKnobsShareCacheEntry(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	e1 := mustQuery(t, svc, lineQ("h", core.PipelineConfig{}, 2)).Entries[0]
	// Same request with a different worker count: same entry.
	e2 := mustQuery(t, svc, QueryRequest{Dataset: "h", S: []int{2}, Workers: 3}).Entries[0]
	if !e2.Cached || e1.Res != e2.Res {
		t.Fatal("requests differing only in workers must share a cache entry")
	}
}

// TestConcurrentIdenticalRequests is the headline concurrency test: N
// goroutines requesting the same (dataset, s) must all receive the
// pointer-identical cached result, whose edges are byte-identical to a
// direct pipeline run. Run under -race in CI.
func TestConcurrentIdenticalRequests(t *testing.T) {
	h := randomHypergraph(7, 400, 300, 6)
	svc := New(Config{})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}

	const n = 32
	results := make([]*core.PipelineResult, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			qr, err := svc.Query(context.Background(), lineQ("rand", cfg, 2))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = qr.Entries[0].Res
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different result pointer", i)
		}
	}
	if !reflect.DeepEqual(results[0].Graph.Edges(), direct(t, h, 2, cfg).Graph.Edges()) {
		t.Fatal("shared result edges differ from a direct pipeline run")
	}
	if st := svc.CacheStats(); st.Entries != 1 {
		t.Fatalf("want exactly 1 cache entry, got %d", st.Entries)
	}
}

// TestConcurrentMixedRequests exercises the cache and singleflight
// under a mixed read/compute workload across s values and orientations.
func TestConcurrentMixedRequests(t *testing.T) {
	h := randomHypergraph(11, 300, 200, 5)
	svc := New(Config{CacheEntries: 8})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := lineQ("rand", cfg, 1+(g+i)%4)
				q.Dual = g%2 != 0
				if _, err := svc.Query(context.Background(), q); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every distinct projection must equal its direct computation.
	for sVal := 1; sVal <= 4; sVal++ {
		res := mustQuery(t, svc, lineQ("rand", cfg, sVal)).Entries[0].Res
		if !reflect.DeepEqual(res.Graph.Edges(), direct(t, h, sVal, cfg).Graph.Edges()) {
			t.Fatalf("s=%d: cached line graph differs from direct run", sVal)
		}
		dres := mustQuery(t, svc, cliqueQ("rand", cfg, sVal)).Entries[0].Res
		if !reflect.DeepEqual(dres.Graph.Edges(), direct(t, h.Dual(), sVal, cfg).Graph.Edges()) {
			t.Fatalf("s=%d: cached clique graph differs from direct dual run", sVal)
		}
	}
}

// countCached reports how many entries of a result were served without
// running Stages 1-4.
func countCached(qr *QueryResult) (hot int) {
	for _, e := range qr.Entries {
		if e.Cached {
			hot++
		}
	}
	return hot
}

// TestBackgroundSweepSeedsCacheIdenticalToDirect: the warmup recipe is a
// background-priority sweep — it computes every projection once, seeds
// the per-s entries single-s queries hit, and a repeat finds all hot.
func TestBackgroundSweepSeedsCacheIdenticalToDirect(t *testing.T) {
	h := randomHypergraph(3, 200, 150, 5)
	svc := New(Config{})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}

	sweep := []int{1, 2, 3, 4}
	warm := lineQ("rand", cfg, sweep...)
	warm.Priority = PriorityBackground
	if hot := countCached(mustQuery(t, svc, warm)); hot != 0 {
		t.Fatalf("first sweep found %d of %d projections hot, want 0", hot, len(sweep))
	}
	for _, sVal := range sweep {
		e := mustQuery(t, svc, lineQ("rand", cfg, sVal)).Entries[0]
		if !e.Cached {
			t.Fatalf("s=%d: query after the warming sweep must be a cache hit", sVal)
		}
		want := direct(t, h, sVal, cfg)
		if !reflect.DeepEqual(e.Res.Graph.Edges(), want.Graph.Edges()) {
			t.Fatalf("s=%d: warmed ensemble edges differ from direct Algorithm 2 run", sVal)
		}
		if !reflect.DeepEqual(e.Res.HyperedgeIDs, want.HyperedgeIDs) {
			t.Fatalf("s=%d: warmed hyperedge IDs differ from direct run", sVal)
		}
	}
	if hot := countCached(mustQuery(t, svc, warm)); hot != len(sweep) {
		t.Fatalf("second sweep found %d projections hot, want %d", hot, len(sweep))
	}
	if got := svc.projectionComputes.Load(); got != int64(len(sweep)) {
		t.Fatalf("projection computes = %d, want %d", got, len(sweep))
	}
}

func TestDatasetReplacementInvalidates(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	e1 := mustQuery(t, svc, lineQ("h", core.PipelineConfig{}, 2)).Entries[0]
	// Replace under the same name: the version bump must force a fresh
	// computation.
	svc.Add("h", hg.FromEdgeSlices([][]uint32{{0, 1, 2}, {0, 1, 2}}, 3))
	e2 := mustQuery(t, svc, lineQ("h", core.PipelineConfig{}, 2)).Entries[0]
	if e2.Cached || e1.Res == e2.Res {
		t.Fatal("replaced dataset must not serve the old cached result")
	}
	if e2.Res.Graph.NumEdges() != 1 {
		t.Fatalf("want 1 edge from replacement dataset, got %d", e2.Res.Graph.NumEdges())
	}
}

func TestServiceLoadByExtension(t *testing.T) {
	dir := t.TempDir()
	h := paperExample()
	for _, name := range []string{"h.hgr", "h.pairs", "h.bin"} {
		path := filepath.Join(dir, name)
		if err := hgio.SaveFile(path, h); err != nil {
			t.Fatal(err)
		}
		svc := New(Config{})
		if err := svc.Load("h", path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := svc.Hypergraph("h")
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != h.NumEdges() || got.Incidences() != h.Incidences() {
			t.Fatalf("%s: loaded dataset differs", name)
		}
	}
}

func TestDatasetsListing(t *testing.T) {
	svc := New(Config{})
	svc.Add("b", paperExample())
	svc.Add("a", paperExample())
	list := svc.Datasets()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("want [a b], got %+v", list)
	}
	if !svc.Remove("a") || svc.Remove("a") {
		t.Fatal("remove semantics broken")
	}
	if len(svc.Datasets()) != 1 {
		t.Fatal("dataset not removed")
	}
}
