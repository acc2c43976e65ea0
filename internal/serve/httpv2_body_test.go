package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/experiments"
	"hyperline/internal/jsonsplice"
	"hyperline/internal/measure"
	"hyperline/internal/par"
)

// queryResponseJSON is the whole /v2/query response document: what the
// handler's body decodes into, and — encoded by json.NewEncoder — the
// reference its bytes are compared against.
type queryResponseJSON struct {
	queryHeadJSON
	Results []queryEntryJSON `json:"results"`
}

// referenceEntry renders one entry the way the handler did before
// entries were memoised: a fresh queryEntryJSON per request.
func referenceEntry(e QueryEntry, edges bool) queryEntryJSON {
	out := queryEntryJSON{S: e.S, Cached: e.Cached}
	if e.Err != nil {
		out.Error = e.Err.Error()
		return out
	}
	switch {
	case e.Measure != nil:
		out.ProjectionCached = e.Measure.ProjectionCached
		out.Nodes = e.Measure.Nodes
		out.Edges = e.Measure.Edges
		out.HyperedgeIDs = e.Measure.HyperedgeIDs
		out.Value = e.Measure.Value
	case e.Res != nil:
		out.Nodes = e.Res.Graph.NumNodes()
		out.Edges = e.Res.Graph.NumEdges()
		out.HyperedgeIDs = e.Res.HyperedgeIDs
	}
	if e.Res != nil {
		t := toTimings(e.Res.Timings)
		out.TimingsMS = &t
		if edges {
			ges := e.Res.Graph.Edges()
			out.EdgeList = make([][3]uint32, len(ges))
			for j, ge := range ges {
				out.EdgeList[j] = [3]uint32{ge.U, ge.V, ge.W}
			}
		}
	}
	return out
}

// referenceResponse is the reference answer for qr: the whole document
// built per request and encoded in one json.NewEncoder call.
func referenceResponse(head queryHeadJSON, qr *QueryResult, edges bool) *httptest.ResponseRecorder {
	resp := queryResponseJSON{queryHeadJSON: head, Results: make([]queryEntryJSON, len(qr.Entries))}
	resp.Version = qr.Version
	if qr.Plan.Strategy != "" {
		plan := toPlan(qr.Plan)
		resp.Plan = &plan
	}
	for i, e := range qr.Entries {
		resp.Results[i] = referenceEntry(e, edges)
	}
	status := http.StatusOK
	if len(resp.Results) > 0 {
		allFailed := true
		for _, e := range resp.Results {
			if e.Error == "" {
				allFailed = false
				break
			}
		}
		if allFailed {
			status = http.StatusBadGateway
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, status, resp)
	return rec
}

// checkBody runs q, writes its answer through the handler's writer and
// through the reference, and fails unless status, headers and body are
// identical. It returns the handler's answer.
func checkBody(t *testing.T, svc *Service, q QueryRequest, edges bool) *httptest.ResponseRecorder {
	t.Helper()
	return checkBodyAt(t, svc, q, edges, par.Options{})
}

// checkBodyAt is checkBody with the entries encoded on opt's workers.
func checkBodyAt(t *testing.T, svc *Service, q QueryRequest, edges bool, opt par.Options) *httptest.ResponseRecorder {
	t.Helper()
	qr := mustQuery(t, svc, q)
	head := queryHeadJSON{Dataset: q.Dataset, Kind: kindString(q.Dual), Measure: q.Measure, ElapsedMS: 0.125}
	got := httptest.NewRecorder()
	writeQueryV2(got, head, qr, edges, opt)
	want := referenceResponse(head, qr, edges)
	if got.Code != want.Code {
		t.Fatalf("%+v: status %d, reference %d", q, got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Fatalf("%+v: Content-Type %q, reference %q", q, g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%+v: body differs from the reference encoding:\n got  %s\n want %s", q, got.Body.Bytes(), want.Body.Bytes())
	}
	return got
}

// resultsOf returns the bytes of a body from its "results" array on:
// everything that does not depend on the head.
func resultsOf(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`,"results":[`))
	if i < 0 {
		t.Fatalf("no results array in %s", body)
	}
	return body[i:]
}

// cachedProj returns a projection-cache value of dataset "g"'s line
// orientation at version and s (any s when s is 0), without touching
// recency or the hit counters.
func cachedProj(svc *Service, version uint64, s int) *projEntry {
	svc.cache.mu.Lock()
	defer svc.cache.mu.Unlock()
	for k, el := range svc.cache.entries {
		if k.dataset == "g" && k.version == version && !k.out.Dual && (s == 0 || k.out.S == s) {
			return el.Value.(*cacheEntry[projKey, *projEntry]).val
		}
	}
	return nil
}

// builtFragments counts the projection-cache values holding a built
// fragment.
func builtFragments(svc *Service) int {
	svc.cache.mu.Lock()
	defer svc.cache.mu.Unlock()
	n := 0
	for _, el := range svc.cache.entries {
		if el.Value.(*cacheEntry[projKey, *projEntry]).val.frag.p.Load() != nil {
			n++
		}
	}
	return n
}

// TestQueryBodyByteIdentical: splicing memoised entries into the
// envelope writes the same status, headers and bytes as encoding the
// whole document per request — for misses, first and later hits, edge
// lists, measure misses and hits (per-node and scalar), per-s errors,
// the clique orientation, an all-failed sweep, and a measure-only answer
// that carries no plan.
func TestQueryBodyByteIdentical(t *testing.T) {
	svc := New(Config{})
	svc.Add("g", sweepDataset())
	svc.Add("paper", paperExample())
	distances3 := map[string]string{"source": "3"}

	for _, tc := range []struct {
		name   string
		q      QueryRequest
		edges  bool
		status int
		plan   bool // the answer carries a plan
	}{
		{"cold sweep", lineQ("g", core.PipelineConfig{}, 1, 2, 3, 4), false, 200, true},
		{"warm sweep builds fragments", lineQ("g", core.PipelineConfig{}, 1, 2, 3, 4), false, 200, true},
		{"warm sweep reuses fragments", lineQ("g", core.PipelineConfig{}, 1, 2, 3, 4), false, 200, true},
		{"warm and cold mixed", lineQ("g", core.PipelineConfig{}, 3, 4, 5), false, 200, true},
		{"edges on hits", lineQ("g", core.PipelineConfig{}, 2, 3), true, 200, true},
		{"edges on a miss", lineQ("g", core.PipelineConfig{NoSqueeze: true}, 2), true, 200, true},
		{"pagerank miss", QueryRequest{Dataset: "g", S: []int{2, 3}, Measure: "pagerank"}, false, 200, true},
		{"pagerank hit", QueryRequest{Dataset: "g", S: []int{2, 3}, Measure: "pagerank"}, false, 200, false},
		{"pagerank hit with edges", QueryRequest{Dataset: "g", S: []int{2, 3}, Measure: "pagerank"}, true, 200, false},
		{"components miss", QueryRequest{Dataset: "g", S: []int{1, 2, 3}, Measure: "components"}, false, 200, true},
		{"components hit", QueryRequest{Dataset: "g", S: []int{1, 2, 3}, Measure: "components"}, false, 200, false},
		{"components hit and miss", QueryRequest{Dataset: "g", S: []int{3, 4}, Measure: "components"}, false, 200, true},
		{"per-s error", QueryRequest{Dataset: "paper", S: []int{1, 3}, Measure: "distances", Params: distances3}, false, 200, true},
		{"per-s error beside a hit", QueryRequest{Dataset: "paper", S: []int{1, 3}, Measure: "distances", Params: distances3}, false, 200, true},
		{"clique", cliqueQ("paper", core.PipelineConfig{NoSqueeze: true}, 1, 2), false, 200, true},
		{"clique hit", cliqueQ("paper", core.PipelineConfig{NoSqueeze: true}, 1, 2), false, 200, true},
		{"all failed", QueryRequest{Dataset: "paper", S: []int{3, 4}, Measure: "distances", Params: distances3}, false, 502, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := checkBody(t, svc, tc.q, tc.edges)
			if rec.Code != tc.status || bytes.Contains(rec.Body.Bytes(), []byte(`"plan":`)) != tc.plan {
				t.Fatalf("status %d, plan %v: %s", rec.Code, !tc.plan, rec.Body.Bytes())
			}
		})
	}
	if builtFragments(svc) == 0 || svc.MeasureCacheStats().Hits == 0 {
		t.Fatal("the table served no memoised fragment")
	}
}

// TestFragmentLifecycle: a fragment lives and dies with its cache
// entry. A migrated entry keeps its fragment under the new version's
// envelope, a patched entry starts a new one, and eviction, removal and
// dataset replacement leave no fragment reachable through the cache.
func TestFragmentLifecycle(t *testing.T) {
	t.Run("migrate keeps, patch rebuilds", func(t *testing.T) {
		svc := New(Config{})
		svc.Add("g", sweepDataset())
		q := lineQ("g", core.PipelineConfig{}, 1, 2, 3, 4, 5)
		checkBody(t, svc, q, false)
		checkBody(t, svc, q, false)
		old := map[int]*projEntry{}
		for s := 1; s <= 5; s++ {
			old[s] = cachedProj(svc, 1, s)
			if old[s] == nil || old[s].frag.p.Load() == nil {
				t.Fatalf("s=%d: no fragment after a hit", s)
			}
		}

		// One inserted pair bounds the line frontier at s=2.
		ing, err := svc.Ingest(context.Background(), "g", &delta.Delta{Inserts: [][]uint32{{0, 1}}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ing.Migrated != 3 || ing.Patched == 0 {
			t.Fatalf("want s=3..5 migrated and a patch below: %+v", ing)
		}
		for s := 1; s <= 5; s++ {
			now := cachedProj(svc, ing.Version, s)
			switch {
			case s > ing.AffectedSLine && now != old[s]:
				t.Fatalf("s=%d: migrate must carry the same entry", s)
			case s <= ing.AffectedSLine && now != nil && (now == old[s] || now.frag.p.Load() != nil):
				t.Fatalf("s=%d: a patched entry must start without a fragment", s)
			}
		}

		migrated := lineQ("g", core.PipelineConfig{}, 3, 4, 5)
		body := checkBody(t, svc, migrated, false).Body.Bytes()
		if !bytes.Contains(body, []byte(fmt.Sprintf(`"version":%d,`, ing.Version))) {
			t.Fatalf("migrated answer not under the new version: %s", body)
		}
		oldFrags := bytes.Join([][]byte{*old[3].frag.p.Load(), *old[4].frag.p.Load(), *old[5].frag.p.Load()}, []byte(","))
		if want := append(append([]byte(`,"results":[`), oldFrags...), "]}\n"...); !bytes.Equal(resultsOf(t, body), want) {
			t.Fatalf("migrated entries were re-encoded:\n got  %s\n want %s", resultsOf(t, body), want)
		}
		checkBody(t, svc, q, false)
		checkBody(t, svc, q, false)
		for s := 1; s <= ing.AffectedSLine; s++ {
			e := cachedProj(svc, ing.Version, s)
			if e == nil || e.frag.p.Load() == nil {
				t.Fatalf("s=%d: no fragment after hits at the new version", s)
			}
			fresh, err := json.Marshal(referenceEntry(QueryEntry{S: s, Res: e.res, Cached: true}, false))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(*e.frag.p.Load(), fresh) {
				t.Fatalf("s=%d: patched fragment %s, fresh encoding %s", s, *e.frag.p.Load(), fresh)
			}
		}
	})

	t.Run("evict, remove, replace", func(t *testing.T) {
		svc := New(Config{CacheEntries: 2})
		svc.Add("g", sweepDataset())
		hit := func(s int) *projEntry {
			checkBody(t, svc, lineQ("g", core.PipelineConfig{}, s), false)
			checkBody(t, svc, lineQ("g", core.PipelineConfig{}, s), false)
			return cachedProj(svc, 1, s)
		}
		first := hit(1)
		if first == nil || builtFragments(svc) != 1 {
			t.Fatalf("want one fragment after hits at s=1, have %d", builtFragments(svc))
		}
		hit(2)
		hit(3) // evicts s=1
		if cachedProj(svc, 1, 1) != nil || builtFragments(svc) != 2 {
			t.Fatalf("eviction: s=1 still cached or %d fragments (want 2)", builtFragments(svc))
		}
		checkBody(t, svc, lineQ("g", core.PipelineConfig{}, 1), false) // recomputed
		if e := cachedProj(svc, 1, 1); e == nil || e == first || e.frag.p.Load() != nil {
			t.Fatal("a recomputed entry must not inherit the evicted entry's fragment")
		}

		if e, ok := svc.cache.Remove(pk(3)); !ok || e.frag.p.Load() == nil {
			t.Fatal("s=3 must be cached with a fragment before removal")
		}
		if cachedProj(svc, 1, 3) != nil || builtFragments(svc) != 0 {
			t.Fatalf("removal left %d fragments reachable", builtFragments(svc))
		}

		svc.Add("g", sweepDataset()) // version 2
		hit(3)
		hit(4)
		if n := builtFragments(svc); n != 2 || cachedProj(svc, 1, 0) != nil {
			t.Fatalf("after replacement: %d fragments, version-1 entries cached=%v", n, cachedProj(svc, 1, 0) != nil)
		}
		if body := checkBody(t, svc, lineQ("g", core.PipelineConfig{}, 1), false).Body.Bytes(); !bytes.Contains(body, []byte(`"cached":false`)) {
			t.Fatalf("replaced dataset answered s=1 from the old version: %s", body)
		}
	})
}

// TestFragmentLifecycleConcurrentFirstHits: many requests hitting one
// cached entry whose fragment is not built yet all answer the same
// bytes, and the entry ends with exactly those bytes.
func TestFragmentLifecycleConcurrentFirstHits(t *testing.T) {
	ts, svc := newTestServer(t)
	svc.Add("g", sweepDataset())
	mustQuery(t, svc, lineQ("g", core.PipelineConfig{}, 2)) // cached, fragment unbuilt
	if builtFragments(svc) != 0 {
		t.Fatal("Service.Query alone must not build fragments")
	}

	const n = 32
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(`{"dataset":"g","s":[2]}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("status %d, err %v", resp.StatusCode, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	e := cachedProj(svc, 1, 2)
	want := append(append([]byte(`,"results":[`), *e.frag.p.Load()...), "]}\n"...)
	for i, b := range bodies {
		if got := resultsOf(t, b); !bytes.Equal(got, want) {
			t.Fatalf("request %d: %s, want %s", i, got, want)
		}
	}
}

// TestQueryEntryPrefixes pins the two byte-level contracts a router
// reads answers by, without decoding them: every body carries an
// index under which jsonsplice.Split cuts it, and every entry starts
// with {"s":N,"cached": when it answered and {"s":N,"error": when it
// failed — projection entries (misses, spliced hits, edge lists),
// measure entries, per-s errors and an all-failed sweep alike.
func TestQueryEntryPrefixes(t *testing.T) {
	ts, svc := newTestServer(t)
	svc.Add("g", sweepDataset())
	svc.Add("paper", paperExample())
	answered, failed := 0, 0
	for _, body := range []string{
		`{"dataset":"g","s":"1:4"}`,
		`{"dataset":"g","s":"1:4"}`,
		`{"dataset":"g","s":[2,3],"edges":true}`,
		`{"dataset":"g","s":[2,3],"measure":"pagerank"}`,
		`{"dataset":"g","s":[2,3],"measure":"pagerank"}`,
		`{"dataset":"paper","s":[1,3],"measure":"distances","params":{"source":"3"}}`,
		`{"dataset":"paper","s":[3,4],"measure":"distances","params":{"source":"3"}}`,
		`{"dataset":"paper","s":[1,2],"kind":"clique"}`,
	} {
		resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadGateway) {
			t.Fatalf("%s: status %d, %v: %s", body, resp.StatusCode, err, data)
		}
		if resp.ContentLength != int64(len(data)) {
			t.Fatalf("%s: Content-Length %d for a %d-byte body", body, resp.ContentLength, len(data))
		}
		_, entries, ok := jsonsplice.Split(data, resp.Header.Get(jsonsplice.EntriesHeader))
		if !ok {
			t.Fatalf("%s: Split rejects %s under index %q", body, data, resp.Header.Get(jsonsplice.EntriesHeader))
		}
		for _, e := range entries {
			var peek struct {
				S     int    `json:"s"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(e, &peek); err != nil {
				t.Fatalf("%s: entry %s: %v", body, e, err)
			}
			prefix := fmt.Sprintf(`{"s":%d,"cached":`, peek.S)
			if peek.Error != "" {
				prefix, failed = fmt.Sprintf(`{"s":%d,"error":`, peek.S), failed+1
			} else {
				answered++
			}
			if !bytes.HasPrefix(e, []byte(prefix)) {
				t.Fatalf("%s: entry %s does not start with %s", body, e, prefix)
			}
		}
	}
	if answered == 0 || failed == 0 {
		t.Fatalf("%d answered and %d failed entries: the table must cover both", answered, failed)
	}
}

// TestQueryBodyByteIdenticalEveryMeasure: every built-in measure over a
// small graph's s-sweep, missed and then hit, answers the bytes of the
// reference encoding whether its entries are encoded on one worker or
// on GOMAXPROCS, with edge lists and without. The required "source"
// names a hyperedge that some s drop, so per-s errors are covered too.
func TestQueryBodyByteIdenticalEveryMeasure(t *testing.T) {
	svc := New(Config{})
	svc.Add("g", sweepDataset())
	for _, info := range measure.Infos() {
		if info.Name == gate.Name() {
			continue // registered by sweep_test.go; blocks until cancelled
		}
		params := map[string]string{}
		for _, p := range info.Params {
			if p.Required {
				params[p.Name] = "7"
			}
		}
		q := QueryRequest{Dataset: "g", S: []int{1, 2, 3, 4, 6}, Measure: info.Name, Params: params}
		for pass := 0; pass < 2; pass++ {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				for _, edges := range []bool{false, true} {
					checkBodyAt(t, svc, q, edges, par.Options{Workers: workers})
				}
			}
		}
	}
	if svc.MeasureCacheStats().Hits == 0 {
		t.Fatal("the sweep served no measure-cache hit")
	}
}

// BenchmarkWriteQueryV2Bundle writes the answer to the measure-bundle
// workload's pagerank request — five entries of per-node scores on the
// Friendster analog's s = 4..8 projections, not memoised — on one
// worker and on GOMAXPROCS, in MB/s of body.
func BenchmarkWriteQueryV2Bundle(b *testing.B) {
	svc := New(Config{})
	svc.Add("f", experiments.FriendsterAnalog(1))
	qr, err := svc.Query(context.Background(), QueryRequest{Dataset: "f", S: []int{4, 5, 6, 7, 8}, Measure: "pagerank"})
	if err != nil {
		b.Fatal(err)
	}
	head := queryHeadJSON{Dataset: "f", Kind: "line", Measure: "pagerank", ElapsedMS: 0.125}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rec := httptest.NewRecorder()
			writeQueryV2(rec, head, qr, false, par.Options{Workers: workers})
			b.SetBytes(int64(rec.Body.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeQueryV2(discardResponse{}, head, qr, false, par.Options{Workers: workers})
			}
		})
	}
}

// discardResponse is a ResponseWriter that keeps nothing.
type discardResponse struct{}

func (discardResponse) Header() http.Header         { return http.Header{} }
func (discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (discardResponse) WriteHeader(int)             {}
