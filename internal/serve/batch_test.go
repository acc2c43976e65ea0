package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hyperline/internal/core"
)

// TestBatchFillsPerSCache: one batched request computes every missing s
// in a single planner pass and seeds the per-s cache, so later single-s
// queries and repeated batches hit.
func TestBatchFillsPerSCache(t *testing.T) {
	h := randomHypergraph(21, 250, 180, 5)
	svc := New(Config{})
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}
	sweep := []int{1, 2, 3, 4}

	batch := mustQuery(t, svc, lineQ("rand", cfg, sweep...))
	if len(batch.Entries) != len(sweep) {
		t.Fatalf("batch returned %d entries, want %d", len(batch.Entries), len(sweep))
	}
	for i, sVal := range sweep {
		e := batch.Entries[i]
		if e.S != sVal || e.Cached {
			t.Fatalf("entry %d: s=%d cached=%v, want a cold s=%d", i, e.S, e.Cached, sVal)
		}
		if !reflect.DeepEqual(e.Res.Graph.Edges(), direct(t, h, sVal, cfg).Graph.Edges()) {
			t.Fatalf("s=%d: batch edges differ from direct run", sVal)
		}
		// Single-s queries must hit the entries the batch seeded.
		single := mustQuery(t, svc, lineQ("rand", cfg, sVal)).Entries[0]
		if !single.Cached {
			t.Fatalf("s=%d: single query after batch must hit", sVal)
		}
		if single.Res != e.Res {
			t.Fatalf("s=%d: single query returned a different pointer than the batch", sVal)
		}
	}

	// A partially-overlapping batch only computes the new s values.
	overlap := mustQuery(t, svc, lineQ("rand", cfg, 2, 3, 5)).Entries
	if !overlap[0].Cached || !overlap[1].Cached || overlap[2].Cached {
		t.Fatalf("overlap batch cached flags: %v %v %v", overlap[0].Cached, overlap[1].Cached, overlap[2].Cached)
	}
	if overlap[0].Res != batch.Entries[1].Res {
		t.Fatal("overlapping batch must reuse the cached pointer")
	}
	if got := svc.projectionComputes.Load(); got != 5 {
		t.Fatalf("projection computes = %d, want 5 (s=1..4, then s=5 alone)", got)
	}
}

// TestBatchDualOrientation: a dual batch runs against the dual
// hypergraph and matches direct dual runs.
func TestBatchDualOrientation(t *testing.T) {
	h := randomHypergraph(23, 150, 120, 5)
	svc := New(Config{})
	svc.Add("rand", h)
	for _, e := range mustQuery(t, svc, cliqueQ("rand", core.PipelineConfig{}, 1, 2)).Entries {
		if !reflect.DeepEqual(e.Res.Graph.Edges(), direct(t, h.Dual(), e.S, core.PipelineConfig{}).Graph.Edges()) {
			t.Fatalf("s=%d: batched clique graph differs from direct dual run", e.S)
		}
	}
}

// TestOutputEquivalentConfigsShareEntries is the output-key
// canonicalization acceptance test at the service level: the entry a
// query caches is the one the key of every exact-weight strategy —
// Algorithm 2, the ensemble, the planner, or Algorithm 1 in exact mode —
// names, and short-circuited Algorithm 1, a different output class,
// names another.
func TestOutputEquivalentConfigsShareEntries(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())
	base := mustQuery(t, svc, lineQ("h", core.PipelineConfig{}, 2)).Entries[0].Res
	equivalent := []core.PipelineConfig{
		{Core: core.Config{Algorithm: core.AlgoHashmap}},
		{Core: core.Config{Algorithm: core.AlgoEnsemble}},
		{Core: core.Config{Algorithm: core.AlgoSetIntersection, DisableShortCircuit: true}},
	}
	for _, cfg := range equivalent {
		if e, ok := svc.cache.Get(projKey{"h", 1, cfg.OutputKey(false, 2)}); !ok || e.res != base {
			t.Fatalf("algorithm %s: the output-equivalent key must name the served entry (hit=%v)", cfg.Core.Algorithm, ok)
		}
	}
	sc := core.PipelineConfig{Core: core.Config{Algorithm: core.AlgoSetIntersection}}
	if _, ok := svc.cache.Get(projKey{"h", 1, sc.OutputKey(false, 2)}); ok {
		t.Fatal("short-circuit Algorithm 1 must not name the exact-class entry")
	}
}

// TestConcurrentIdenticalBatches: concurrent identical batch requests
// share one computation via singleflight and agree on result pointers.
// Run under -race in CI.
func TestConcurrentIdenticalBatches(t *testing.T) {
	h := randomHypergraph(37, 300, 220, 6)
	svc := New(Config{})
	svc.Add("rand", h)
	sweep := []int{1, 2, 3}

	const n = 16
	out := make([][]QueryEntry, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			qr, err := svc.Query(context.Background(), lineQ("rand", core.PipelineConfig{}, sweep...))
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = qr.Entries
		}(i)
	}
	start.Done()
	done.Wait()
	if t.Failed() {
		return
	}

	for i := 1; i < n; i++ {
		for j := range sweep {
			if out[i][j].Res != out[0][j].Res {
				t.Fatalf("goroutine %d s=%d: different result pointer", i, sweep[j])
			}
		}
	}
	if st := svc.CacheStats(); st.Entries != len(sweep) {
		t.Fatalf("want %d cache entries, got %d", len(sweep), st.Entries)
	}
	if got := svc.projectionComputes.Load(); got != int64(len(sweep)) {
		t.Fatalf("projection computes = %d, want %d: identical batches must share one pass", got, len(sweep))
	}
}
