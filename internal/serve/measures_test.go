package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// TestMeasureServedFromCache is the acceptance check for the measures
// engine: on a warmed dataset a repeated measure request is served
// from the measure cache without recomputing the measure, proved by
// the instrumented compute counter.
func TestMeasureServedFromCache(t *testing.T) {
	svc := New(Config{})
	svc.Add("paper", paperExample())

	q := QueryRequest{Dataset: "paper", S: []int{2}, Measure: "components"}
	first := mustQuery(t, svc, q).Entries[0].Measure
	if first.Cached {
		t.Fatal("cold measure must not report cached")
	}
	if got := svc.MeasureCacheStats().Computes; got != 1 {
		t.Fatalf("cold measure ran %d computes, want 1", got)
	}
	second := mustQuery(t, svc, q).Entries[0].Measure
	if !second.Cached || !second.ProjectionCached {
		t.Fatalf("warm measure flags: %+v", second)
	}
	if second.MeasureEntry != first.MeasureEntry {
		t.Fatal("warm measure must return the pointer-identical cached entry")
	}
	if got := svc.MeasureCacheStats().Computes; got != 1 {
		t.Fatalf("warm measure recomputed (computes=%d, want 1)", got)
	}
	// Execution knobs (workers) share the entry: the output key
	// excludes them and measures are worker-deterministic.
	q.Workers = 3
	third := mustQuery(t, svc, q).Entries[0].Measure
	if !third.Cached || third.MeasureEntry != first.MeasureEntry {
		t.Fatal("workers-only config change must hit the same measure entry")
	}
}

// TestMeasureCacheRace hammers the same and different measure keys
// from 32 goroutines under -race: every result for one key must be the
// pointer-identical entry, cached flags must be truthful (at most one
// non-cached response per key), and the compute counter must equal the
// number of distinct keys.
func TestMeasureCacheRace(t *testing.T) {
	svc := New(Config{})
	svc.Add("g", gen.Community(gen.CommunityConfig{
		Seed: 3, NumVertices: 50, NumCommunities: 4,
		MeanCommunitySize: 8, EdgesPerCommunity: 5,
	}))

	type query struct {
		s       int
		measure string
	}
	queries := []query{
		{1, "components"}, {2, "components"}, {2, "harmonic"}, {3, "clustering"},
	}
	const goroutines = 32
	results := make([]*MeasureResult, goroutines)
	qIdx := make([]int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		qIdx[i] = i % len(queries)
		go func(i int) {
			defer wg.Done()
			q := queries[qIdx[i]]
			qr, err := svc.Query(context.Background(), QueryRequest{Dataset: "g", S: []int{q.s}, Measure: q.measure})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = qr.Entries[0].Measure
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Pointer identity per key, and truthful cached flags: at most one
	// response per key may claim to have computed (the others shared
	// the flight or hit the cache).
	for qi := range queries {
		var entry *MeasureEntry
		uncached := 0
		for i := 0; i < goroutines; i++ {
			if qIdx[i] != qi {
				continue
			}
			if entry == nil {
				entry = results[i].MeasureEntry
			} else if results[i].MeasureEntry != entry {
				t.Fatalf("query %d returned two distinct entries", qi)
			}
			if !results[i].Cached {
				uncached++
			}
		}
		if uncached > 1 {
			t.Fatalf("query %d: %d responses claim to have computed", qi, uncached)
		}
	}
	if got := svc.MeasureCacheStats().Computes; got != int64(len(queries)) {
		t.Fatalf("computes = %d, want %d (one per distinct key)", got, len(queries))
	}
	// A second concurrent round must be all hits: no new computes.
	var wg2 sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			q := queries[i%len(queries)]
			qr, err := svc.Query(context.Background(), QueryRequest{Dataset: "g", S: []int{q.s}, Measure: q.measure})
			if err != nil {
				t.Error(err)
				return
			}
			if !qr.Entries[0].Cached {
				t.Errorf("second round query %d not cached", i%len(queries))
			}
		}(i)
	}
	wg2.Wait()
	if got := svc.MeasureCacheStats().Computes; got != int64(len(queries)) {
		t.Fatalf("second round recomputed: computes = %d, want %d", got, len(queries))
	}
}

// TestMeasureCacheNeverStale replaces a dataset under churn that keeps
// the tiny LRU at capacity and asserts the cache never serves a value
// computed on a previous dataset version.
func TestMeasureCacheNeverStale(t *testing.T) {
	svc := New(Config{MeasureCacheEntries: 2})
	// v1: the paper example — 1-line graph has 1 component.
	svc.Add("d", paperExample())
	at1 := func(measureName string) *MeasureResult {
		t.Helper()
		return mustQuery(t, svc, QueryRequest{Dataset: "d", S: []int{1}, Measure: measureName}).Entries[0].Measure
	}
	v1 := at1("components")
	if *v1.Value.Scalar != 1 {
		t.Fatalf("v1 components = %v, want 1", *v1.Value.Scalar)
	}
	// Fill the 2-entry LRU with other keys so v1's entry is evicted.
	at1("diameter")
	at1("clustering-global")
	// v2: two disjoint cliques — 1-line graph has 2 components.
	svc.Add("d", exampleTwoComponents())
	v2 := at1("components")
	if v2.Cached {
		t.Fatal("replaced dataset must not serve the old version's value")
	}
	if *v2.Value.Scalar != 2 {
		t.Fatalf("v2 components = %v, want 2", *v2.Value.Scalar)
	}
	// Churn the full LRU across both versions a few times: every
	// response must match its version's ground truth.
	for i := 0; i < 5; i++ {
		got := at1("components")
		if *got.Value.Scalar != 2 {
			t.Fatalf("round %d served stale components = %v", i, *got.Value.Scalar)
		}
		at1("diameter")
		at1("clustering-global")
	}
	stats := svc.MeasureCacheStats()
	if stats.Entries > 2 {
		t.Fatalf("LRU over capacity: %+v", stats)
	}
	if stats.Evictions == 0 {
		t.Fatalf("churn should have evicted entries: %+v", stats)
	}
}

// exampleTwoComponents returns a hypergraph whose 1-line graph has two
// components: two hyperedge pairs sharing vertices, no overlap across
// pairs.
func exampleTwoComponents() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1}, {1, 2},
		{5, 6}, {6, 7},
	}, 8)
}

// TestMeasureSweepBatching checks the batched sweep path: one call
// fills every s, results are ordered by ascending distinct s, warm
// entries are honored, and a repeat sweep recomputes nothing.
func TestMeasureSweepBatching(t *testing.T) {
	svc := New(Config{})
	svc.Add("paper", paperExample())

	// Warm s=2 alone first.
	mustQuery(t, svc, QueryRequest{Dataset: "paper", S: []int{2}, Measure: "components"})
	results := mustQuery(t, svc, QueryRequest{Dataset: "paper", S: []int{3, 1, 2, 2}, Measure: "components"}).Entries
	if len(results) != 3 {
		t.Fatalf("sweep returned %d results, want 3 distinct", len(results))
	}
	for i, wantS := range []int{1, 2, 3} {
		if results[i].S != wantS {
			t.Fatalf("result %d has s=%d, want %d", i, results[i].S, wantS)
		}
	}
	if !results[1].Cached {
		t.Fatal("pre-warmed s=2 must be served from the measure cache")
	}
	if results[0].Cached || results[2].Cached {
		t.Fatal("cold sweep members must not report cached")
	}
	computes := svc.MeasureCacheStats().Computes
	if computes != 3 {
		t.Fatalf("computes = %d, want 3 (s=2 warm + s=1,3 cold)", computes)
	}
	for _, r := range mustQuery(t, svc, QueryRequest{Dataset: "paper", S: []int{1, 2, 3}, Measure: "components"}).Entries {
		if !r.Cached {
			t.Fatalf("repeat sweep s=%d not cached", r.S)
		}
	}
	if got := svc.MeasureCacheStats().Computes; got != computes {
		t.Fatalf("repeat sweep recomputed: %d -> %d", computes, got)
	}
}

// TestMeasureErrors covers the failure paths: unknown measure (the
// error lists the registry), unknown dataset, bad params.
func TestMeasureErrors(t *testing.T) {
	svc := New(Config{})
	svc.Add("paper", paperExample())
	query := func(dataset, measureName string, params map[string]string) (*QueryResult, error) {
		return svc.Query(context.Background(), QueryRequest{
			Dataset: dataset, S: []int{2}, Measure: measureName, Params: params,
		})
	}
	if _, err := query("paper", "nope", nil); err == nil || !strings.Contains(err.Error(), "components") {
		t.Fatalf("unknown measure error must list the registry, got %v", err)
	}
	if _, err := query("ghost", "components", nil); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset error, got %v", err)
	}
	if _, err := query("paper", "distances", nil); err == nil {
		t.Fatal("distances without source must fail")
	}
	// A failed compute (absent source hyperedge) is a per-s error on its
	// entry, which keeps the projection it failed on, and must not
	// pollute the cache.
	before := svc.MeasureCacheStats()
	qr, err := query("paper", "distances", map[string]string{"source": "3"})
	if err != nil {
		t.Fatalf("a per-s failure must not fail the query: %v", err)
	}
	if e := qr.Entries[0]; e.Err == nil || e.Measure != nil || e.Res == nil {
		t.Fatalf("absent source hyperedge must fail its entry, got %+v", e)
	}
	after := svc.MeasureCacheStats()
	if after.Entries != before.Entries {
		t.Fatalf("failed compute cached an entry: %+v -> %+v", before, after)
	}
}

// TestHTTPMeasuresEndpoint exercises measure sweeps over /v2/query and
// the registry listing end to end.
// TestQueryNaNDampingIs400: a NaN damping is a bad parameter. Were it
// let through, the ranks would be NaN, the JSON encode would fail after
// the status line, and the client would read 200 with an empty body.
func TestQueryNaNDampingIs400(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	for _, v := range []string{"NaN", "nan"} {
		postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"pagerank","params":{"damping":"`+v+`"}}`, http.StatusBadRequest, nil)
	}
}

func TestHTTPMeasuresEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	var infos []map[string]any
	do(t, http.MethodGet, ts.URL+"/v1/measures", nil, http.StatusOK, &infos)
	names := map[string]bool{}
	for _, info := range infos {
		names[fmt.Sprint(info["name"])] = true
	}
	for _, want := range []string{"components", "betweenness", "pagerank", "eccentricity"} {
		if !names[want] {
			t.Fatalf("/v1/measures missing %s: %v", want, names)
		}
	}

	var sweep queryResponseJSON
	body := `{"dataset":"paper","s":"1:3","measure":"components"}`
	postQuery(t, ts, body, http.StatusOK, &sweep)
	if len(sweep.Results) != 3 || sweep.Measure != "components" {
		t.Fatalf("sweep response: %+v", sweep)
	}
	for i, r := range sweep.Results {
		if r.S != i+1 || r.Value == nil || r.Value.Scalar == nil || r.Cached {
			t.Fatalf("sweep result %d: %+v", i, r)
		}
	}
	// Repeat: all cached.
	postQuery(t, ts, body, http.StatusOK, &sweep)
	for _, r := range sweep.Results {
		if !r.Cached || !r.ProjectionCached {
			t.Fatalf("repeat sweep s=%d not cached", r.S)
		}
	}
	// Failure modes.
	postQuery(t, ts, `{"dataset":"paper","s":"1:3","measure":"nope"}`, http.StatusBadRequest, nil)
	postQuery(t, ts, `{"dataset":"paper","measure":"components"}`, http.StatusBadRequest, nil)
	postQuery(t, ts, `{"dataset":"ghost","s":[1],"measure":"components"}`, http.StatusNotFound, nil)
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"pagerank","params":{"damping":"7"}}`, http.StatusBadRequest, nil)
}
