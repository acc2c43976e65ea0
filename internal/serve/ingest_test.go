package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/delta"
)

// queryV2 posts one /v2/query and decodes the response.
func queryV2(t *testing.T, ts *httptest.Server, body string) v2Response {
	t.Helper()
	var out v2Response
	do(t, http.MethodPost, ts.URL+"/v2/query", strings.NewReader(body), http.StatusOK, &out)
	return out
}

// v2Response mirrors the wire fields these tests assert on.
type v2Response struct {
	Dataset string `json:"dataset"`
	Version uint64 `json:"version"`
	Results []struct {
		S      int    `json:"s"`
		Cached bool   `json:"cached"`
		Nodes  int    `json:"nodes"`
		Edges  int    `json:"edges"`
		Error  string `json:"error"`
	} `json:"results"`
}

type ingestResponse struct {
	IngestResult
	ElapsedMS float64 `json:"elapsed_ms"`
}

// TestIngestSelectiveInvalidation is the headline streaming contract:
// after a delta, only cache keys the delta's frontier intersects are
// invalidated. Warmed line projections at s above the affected bound
// answer cached:true at the new version, without a single recompute.
func TestIngestSelectiveInvalidation(t *testing.T) {
	ts, svc := newTestServer(t)
	uploadPaper(t, ts)

	// Warm the exact-class line projections at s=1..5.
	warm := queryV2(t, ts, `{"dataset": "paper", "s": [1,2,3,4,5], "exact": true}`)
	if warm.Version != 1 {
		t.Fatalf("fresh dataset at version %d, want 1", warm.Version)
	}
	computes := svc.projectionComputes.Load()
	if computes == 0 {
		t.Fatal("warmup did not compute anything")
	}

	// Ingest one delta: a new {4,5} hyperedge. Line frontier bound is
	// the max inserted size — 2 — so s=3..5 are provably unaffected.
	var ing ingestResponse
	do(t, http.MethodPost, ts.URL+"/v2/ingest",
		strings.NewReader(`{"dataset": "paper", "inserts": [[4, 5]]}`),
		http.StatusOK, &ing)
	if ing.OldVersion != 1 || ing.Version != 2 {
		t.Fatalf("version transition %d -> %d, want 1 -> 2", ing.OldVersion, ing.Version)
	}
	if ing.AffectedSLine != 2 {
		t.Fatalf("affected_s_line = %d, want 2", ing.AffectedSLine)
	}
	if ing.Inserts != 1 || ing.Deletes != 0 {
		t.Fatalf("delta shape %d/%d, want 1 insert, 0 deletes", ing.Inserts, ing.Deletes)
	}
	// s=3,4,5 are above the frontier: migrated. s=1,2 were patched or
	// dropped, never silently kept.
	if ing.Migrated != 3 {
		t.Fatalf("migrated = %d, want 3 (s=3..5)", ing.Migrated)
	}
	if ing.Patched+ing.Dropped != 2 {
		t.Fatalf("patched+dropped = %d+%d, want 2 (s=1,2)", ing.Patched, ing.Dropped)
	}

	// The unaffected s values answer cached:true at the new version
	// with the compute counter untouched.
	after := queryV2(t, ts, `{"dataset": "paper", "s": [3,4,5], "exact": true}`)
	if after.Version != 2 {
		t.Fatalf("post-ingest query pinned to version %d, want 2", after.Version)
	}
	for _, e := range after.Results {
		if !e.Cached {
			t.Errorf("s=%d not served from cache after an unrelated delta", e.S)
		}
	}
	if got := svc.projectionComputes.Load(); got != computes {
		t.Fatalf("projection computes went %d -> %d; unaffected s must not recompute", computes, got)
	}

	// Every s — patched, migrated, or recomputed — matches a
	// from-scratch pipeline run on the post-delta hypergraph.
	d := &delta.Delta{Inserts: [][]uint32{{4, 5}}}
	newH, err := delta.Apply(paperExample(), d)
	if err != nil {
		t.Fatal(err)
	}
	full := queryV2(t, ts, `{"dataset": "paper", "s": [1,2,3,4,5], "exact": true}`)
	var cfg core.PipelineConfig
	cfg.Core.DisableShortCircuit = true
	for _, e := range full.Results {
		fresh := direct(t, newH, e.S, cfg)
		if e.Nodes != fresh.Graph.NumNodes() || e.Edges != fresh.Graph.NumEdges() {
			t.Errorf("s=%d: served %d nodes/%d edges, fresh compute has %d/%d",
				e.S, e.Nodes, e.Edges, fresh.Graph.NumNodes(), fresh.Graph.NumEdges())
		}
	}
}

// TestIngestLeavesOtherDatasetsAlone: a delta walks only its own
// dataset's cache entries, projection and measure alike — including
// when another dataset's name begins with this one's "name@version/".
// Over HTTP such a name arrives as PUT /v1/datasets/g%401%2Fx.
func TestIngestLeavesOtherDatasetsAlone(t *testing.T) {
	svc := New(Config{})
	if v := svc.reg.Add("g", paperExample()); v != 1 {
		t.Fatalf("g registered at version %d, want 1", v)
	}
	svc.Add("g@1/x", paperExample())
	sweeps := func(name string) []QueryRequest {
		return []QueryRequest{
			lineQ(name, core.PipelineConfig{}, 1, 2, 3),
			{Dataset: name, S: []int{1, 2, 3}, Measure: "components"},
		}
	}
	for _, q := range append(sweeps("g"), sweeps("g@1/x")...) {
		mustQuery(t, svc, q)
	}
	projs, measures := svc.projectionComputes.Load(), svc.measureComputes.Load()

	ing, err := svc.Ingest(context.Background(), "g", &delta.Delta{Inserts: [][]uint32{{4, 5}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := ing.Migrated + ing.Patched + ing.Dropped; n != 3 {
		t.Errorf("projection outcomes %+v count %d keys, want g's 3", ing, n)
	}
	if n := ing.MeasuresMigrated + ing.MeasuresDropped; n != 3 {
		t.Errorf("measure outcomes %+v count %d keys, want g's 3", ing, n)
	}
	for _, q := range sweeps("g@1/x") {
		for _, e := range mustQuery(t, svc, q).Entries {
			if !e.Cached {
				t.Errorf("%s measure=%q s=%d: recomputed after a delta into g", q.Dataset, q.Measure, e.S)
			}
		}
	}
	if p, m := svc.projectionComputes.Load(), svc.measureComputes.Load(); p != projs || m != measures {
		t.Errorf("g@1/x recomputed: projections %d -> %d, measures %d -> %d", projs, p, measures, m)
	}
}

// linePasses reads the line-orientation Stage-3 pass count of the named
// dataset's current version.
func linePasses(t *testing.T, svc *Service, name string) int64 {
	t.Helper()
	_, v, err := svc.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := svc.reg.at(name, v)
	if !ok {
		t.Fatalf("dataset %q version %d is not current", name, v)
	}
	return d.passesOf(false).Load()
}

// TestIngestPassCountSurvives: the Stage-3 pass count that switches the
// ingest walk to the permissive patch threshold belongs to the dataset
// lineage. It survives delta-derived version bumps (the hypergraph
// changed incrementally and is still being read), while a full
// re-upload and a registry restored from a snapshot start at 0.
func TestIngestPassCountSurvives(t *testing.T) {
	ts, svc := newTestServer(t)
	uploadPaper(t, ts)

	for s := 1; s <= 3; s++ {
		queryV2(t, ts, fmt.Sprintf(`{"dataset": "paper", "s": [%d], "exact": true}`, s))
	}
	if n := linePasses(t, svc, "paper"); n != projectedPasses {
		t.Fatalf("three single-s computes counted %d passes, want %d", n, projectedPasses)
	}

	for i := 0; i < 3; i++ {
		d := &delta.Delta{Inserts: [][]uint32{{uint32(i), uint32(i + 1)}}}
		if _, err := svc.Ingest(context.Background(), "paper", d, 0); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if n := linePasses(t, svc, "paper"); n != projectedPasses {
			t.Fatalf("after delta %d the pass count is %d, want %d", i+1, n, projectedPasses)
		}
	}
	if _, v, _ := svc.reg.Get("paper"); v != 4 {
		t.Fatalf("after 3 deltas version = %d, want 4", v)
	}

	dir := t.TempDir()
	if err := svc.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	t.Cleanup(func() { restored.Close() })
	if _, err := restored.RestoreState(dir); err != nil {
		t.Fatal(err)
	}
	if n := linePasses(t, restored, "paper"); n != 0 {
		t.Fatalf("restored registry starts at %d passes, want 0", n)
	}

	// A full replacement is a new lineage.
	uploadPaper(t, ts)
	if n := linePasses(t, svc, "paper"); n != 0 {
		t.Fatalf("re-upload kept %d passes, want 0", n)
	}
}

// TestIngestVersionConflict covers both conflict paths: a stale
// base_version pin over HTTP (409), and the registry CAS losing to a
// concurrent writer.
func TestIngestVersionConflict(t *testing.T) {
	ts, svc := newTestServer(t)
	uploadPaper(t, ts)

	do(t, http.MethodPost, ts.URL+"/v2/ingest",
		strings.NewReader(`{"dataset": "paper", "base_version": 99, "inserts": [[4, 5]]}`),
		http.StatusConflict, nil)

	// Correct pin succeeds and bumps the version.
	var ing ingestResponse
	do(t, http.MethodPost, ts.URL+"/v2/ingest",
		strings.NewReader(`{"dataset": "paper", "base_version": 1, "inserts": [[4, 5]]}`),
		http.StatusOK, &ing)
	if ing.Version != 2 {
		t.Fatalf("pinned ingest produced version %d, want 2", ing.Version)
	}

	// The old pin is now stale.
	do(t, http.MethodPost, ts.URL+"/v2/ingest",
		strings.NewReader(`{"dataset": "paper", "base_version": 1, "inserts": [[0, 1]]}`),
		http.StatusConflict, nil)

	// A malformed delta (hyperedge ID out of range) is a client error.
	do(t, http.MethodPost, ts.URL+"/v2/ingest",
		strings.NewReader(`{"dataset": "paper", "deletes": [99]}`),
		http.StatusBadRequest, nil)

	// Unknown dataset.
	do(t, http.MethodPost, ts.URL+"/v2/ingest",
		strings.NewReader(`{"dataset": "nope", "inserts": [[0, 1]]}`),
		http.StatusNotFound, nil)
	_ = svc
}

// changesResponse mirrors GET /v2/datasets/{name}/changes.
type changesResponse struct {
	Dataset string        `json:"dataset"`
	Version uint64        `json:"version"`
	Events  []ChangeEvent `json:"events"`
}

// TestChangesTimeoutCap pins the long-poll bound for every timeout_ms:
// the default for 0, the value itself up to maxChangesTimeout, and
// maxChangesTimeout past it, including values whose product with
// time.Millisecond overflows a Duration.
func TestChangesTimeoutCap(t *testing.T) {
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, defaultChangesTimeout},
		{1, time.Millisecond},
		{5000, 5 * time.Second},
		{120000, maxChangesTimeout},
		{120001, maxChangesTimeout},
		{9223372036854, maxChangesTimeout},
		{9223372036855, maxChangesTimeout}, // the first to wrap negative unsaturated
		{10000000000000, maxChangesTimeout},
		{math.MaxInt, maxChangesTimeout},
	} {
		if got := changesTimeout(tc.ms); got != tc.want {
			t.Errorf("changesTimeout(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// TestChangesFeed covers the long-poll contract: an idle poll times out
// with the current version and no events; a waiter blocked on the feed
// is woken by a concurrent ingest; a version jump the feed cannot
// explain (full re-upload) ends the poll immediately with no events so
// the client re-syncs.
func TestChangesFeed(t *testing.T) {
	ts, svc := newTestServer(t)
	uploadPaper(t, ts)

	// since=0 against version 1: the jump from upload is outside the
	// feed, so the poll returns immediately, empty.
	var cr changesResponse
	do(t, http.MethodGet, ts.URL+"/v2/datasets/paper/changes?since=0&timeout_ms=5000",
		nil, http.StatusOK, &cr)
	if cr.Version != 1 || len(cr.Events) != 0 {
		t.Fatalf("upload jump: version %d events %d, want 1 and none", cr.Version, len(cr.Events))
	}

	// Idle poll at the current version: times out empty.
	start := time.Now()
	do(t, http.MethodGet, ts.URL+"/v2/datasets/paper/changes?since=1&timeout_ms=100",
		nil, http.StatusOK, &cr)
	if len(cr.Events) != 0 || cr.Version != 1 {
		t.Fatalf("idle poll: %+v", cr)
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("idle poll returned before its timeout")
	}

	// A blocked waiter is woken by a concurrent ingest.
	done := make(chan changesResponse, 1)
	go func() {
		var out changesResponse
		do(t, http.MethodGet, ts.URL+"/v2/datasets/paper/changes?since=1&timeout_ms=10000",
			nil, http.StatusOK, &out)
		done <- out
	}()
	time.Sleep(50 * time.Millisecond) // let the poll block
	d := &delta.Delta{Inserts: [][]uint32{{4, 5}}}
	if _, err := svc.Ingest(context.Background(), "paper", d, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if out.Version != 2 || len(out.Events) != 1 {
			t.Fatalf("woken poll: %+v", out)
		}
		ev := out.Events[0]
		if ev.Version != 2 || ev.Inserts != 1 {
			t.Fatalf("event %+v, want version 2 with 1 insert", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ingest did not wake the long-poll waiter")
	}

	// Unknown dataset is a 404, not a hang.
	do(t, http.MethodGet, ts.URL+"/v2/datasets/nope/changes?since=0",
		nil, http.StatusNotFound, nil)
}

// TestIngestMeasureMigration checks the measure cache rides along:
// measure values whose projection provably survived the delta re-key to
// the new version (cached:true, no recompute), values inside the
// frontier drop and recompute.
func TestIngestMeasureMigration(t *testing.T) {
	ts, svc := newTestServer(t)
	uploadPaper(t, ts)

	// Warm components at s=1 (inside the coming frontier) and s=3
	// (outside it).
	queryV2(t, ts, `{"dataset": "paper", "s": [1, 3], "measure": "components", "exact": true}`)
	mComputes := svc.measureComputes.Load()
	if mComputes == 0 {
		t.Fatal("measure warmup did not compute")
	}

	var ing ingestResponse
	do(t, http.MethodPost, ts.URL+"/v2/ingest",
		strings.NewReader(`{"dataset": "paper", "inserts": [[4, 5]]}`),
		http.StatusOK, &ing)
	if ing.MeasuresMigrated != 1 || ing.MeasuresDropped != 1 {
		t.Fatalf("measures migrated/dropped = %d/%d, want 1/1", ing.MeasuresMigrated, ing.MeasuresDropped)
	}

	out := queryV2(t, ts, `{"dataset": "paper", "s": [3], "measure": "components", "exact": true}`)
	if len(out.Results) != 1 || !out.Results[0].Cached {
		t.Fatalf("migrated measure not served from cache: %+v", out.Results)
	}
	if got := svc.measureComputes.Load(); got != mComputes {
		t.Fatalf("measure computes went %d -> %d on a migrated key", mComputes, got)
	}

	out = queryV2(t, ts, `{"dataset": "paper", "s": [1], "measure": "components", "exact": true}`)
	if len(out.Results) != 1 || out.Results[0].Cached {
		t.Fatal("frontier-intersecting measure was served stale from cache")
	}
}
