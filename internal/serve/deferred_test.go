package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/hg"
)

// deferredQuery is the s = 2 line query whose cached projection the
// ingest below patches.
const deferredQuery = `{"dataset":"g","s":[2]`

// patchedService serves sweepDataset over HTTP with its s = 2 line
// projection cached, then ingests one small insert that the walk
// patches (a deferred projection), and returns the post-delta
// hypergraph a recompute must match.
func patchedService(t *testing.T) (*httptest.Server, *Service, *hg.Hypergraph) {
	t.Helper()
	ts, svc := newTestServer(t)
	base := sweepDataset()
	svc.Add("g", base)
	postQuery(t, ts, deferredQuery+`}`, http.StatusOK, nil)
	d := &delta.Delta{Inserts: [][]uint32{{0, 1, 2}}}
	ing, err := svc.Ingest(context.Background(), "g", d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Patched != 1 {
		t.Fatalf("ingest patched %d entries (migrated %d, dropped %d), want 1", ing.Patched, ing.Migrated, ing.Dropped)
	}
	if n := svc.projectionMaterializations.Load(); n != 0 {
		t.Fatalf("the ingest itself built %d projections' rows, want 0", n)
	}
	newH, err := delta.Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	return ts, svc, newH
}

// exactAt2 recomputes the query's projection on h.
func exactAt2(t *testing.T, h *hg.Hypergraph) *core.PipelineResult {
	return direct(t, h, 2, core.PipelineConfig{})
}

// TestDeferredCountsOnlyQuery: a /v2/query without edges on a patched
// projection answers nodes, edges and hyperedge_ids from the deferred
// result — equal to a recompute — and builds no rows; the materialization
// counter stays at 0 on /metrics too.
func TestDeferredCountsOnlyQuery(t *testing.T) {
	ts, svc, newH := patchedService(t)
	var got queryResponseJSON
	postQuery(t, ts, deferredQuery+`}`, http.StatusOK, &got)
	want := exactAt2(t, newH)
	e := got.Results[0]
	if !e.Cached || e.Nodes != want.Graph.NumNodes() || e.Edges != want.Graph.NumEdges() {
		t.Fatalf("served cached=%v, %d nodes, %d edges; recompute has %d, %d",
			e.Cached, e.Nodes, e.Edges, want.Graph.NumNodes(), want.Graph.NumEdges())
	}
	if !slices.Equal(e.HyperedgeIDs, want.HyperedgeIDs) {
		t.Fatal("served hyperedge_ids differ from a recompute")
	}
	if n := svc.projectionMaterializations.Load(); n != 0 {
		t.Fatalf("a counts-only query built %d projections' rows, want 0", n)
	}
	_, samples := scrapeMetrics(t, ts.URL)
	if v := samples["hyperline_projection_materializations_total"]; v != 0 {
		t.Fatalf("hyperline_projection_materializations_total = %g, want 0", v)
	}
}

// TestDeferredEdgesReadersMaterializeOnce: concurrent "edges": true
// reads of one patched projection build its rows exactly once between
// them, and every reader gets the same edge list as a recompute. Run
// under -race.
func TestDeferredEdgesReadersMaterializeOnce(t *testing.T) {
	ts, svc, newH := patchedService(t)
	const readers = 8
	served := make([]queryResponseJSON, readers)
	var wg sync.WaitGroup
	for i := range served {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(deferredQuery+`,"edges":true}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&served[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := svc.projectionMaterializations.Load(); n != 1 {
		t.Fatalf("%d concurrent edge reads built the rows %d times, want once", readers, n)
	}
	var later queryResponseJSON
	postQuery(t, ts, deferredQuery+`,"edges":true}`, http.StatusOK, &later)
	if n := svc.projectionMaterializations.Load(); n != 1 {
		t.Fatalf("a later edge read built the rows again (%d builds)", n)
	}
	var want [][3]uint32
	for _, e := range exactAt2(t, newH).Graph.Edges() {
		want = append(want, [3]uint32{e.U, e.V, e.W})
	}
	for i, got := range append(served, later) {
		if len(got.Results) != 1 || !slices.Equal(got.Results[0].EdgeList, want) {
			t.Fatalf("reader %d: served edge list differs from a recompute", i)
		}
	}
}
