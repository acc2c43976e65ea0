package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hgio"
)

// paperAdjacency is the running example in adjacency format.
const paperAdjacency = "0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n"

func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func do(t *testing.T, method, url string, body io.Reader, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
}

func uploadPaper(t *testing.T, ts *httptest.Server) {
	t.Helper()
	do(t, http.MethodPut, ts.URL+"/v1/datasets/paper",
		strings.NewReader(paperAdjacency), http.StatusOK, nil)
}

func TestHTTPHealthAndCache(t *testing.T) {
	ts, _ := newTestServer(t)
	var health map[string]bool
	do(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, &health)
	if !health["ok"] {
		t.Fatal("health endpoint not ok")
	}
	var stats struct {
		Pipeline CacheStats        `json:"pipeline"`
		Measures MeasureCacheStats `json:"measures"`
	}
	do(t, http.MethodGet, ts.URL+"/v1/cache", nil, http.StatusOK, &stats)
	if stats.Pipeline.Capacity != DefaultCacheEntries {
		t.Fatalf("bad pipeline cache stats %+v", stats.Pipeline)
	}
	if stats.Measures.Capacity != DefaultMeasureCacheEntries {
		t.Fatalf("bad measure cache stats %+v", stats.Measures)
	}
}

func TestHTTPUploadFormatsAndList(t *testing.T) {
	ts, _ := newTestServer(t)
	// adjacency (default format)
	uploadPaper(t, ts)
	// pairs
	pairs := "0 0\n0 1\n1 1\n1 2\n"
	do(t, http.MethodPut, ts.URL+"/v1/datasets/p?format=pairs",
		strings.NewReader(pairs), http.StatusOK, nil)
	// binary
	var bin bytes.Buffer
	if err := hgio.WriteBinary(&bin, paperExample()); err != nil {
		t.Fatal(err)
	}
	do(t, http.MethodPut, ts.URL+"/v1/datasets/b?format=bin", &bin, http.StatusOK, nil)
	// bad format
	do(t, http.MethodPut, ts.URL+"/v1/datasets/x?format=nope",
		strings.NewReader(""), http.StatusBadRequest, nil)

	var list []DatasetInfo
	do(t, http.MethodGet, ts.URL+"/v1/datasets", nil, http.StatusOK, &list)
	if len(list) != 3 {
		t.Fatalf("want 3 datasets, got %+v", list)
	}
	var stats struct{ NumEdges int }
	do(t, http.MethodGet, ts.URL+"/v1/datasets/paper", nil, http.StatusOK, &stats)
	if stats.NumEdges != 4 {
		t.Fatalf("paper dataset has %d edges, want 4", stats.NumEdges)
	}
	do(t, http.MethodDelete, ts.URL+"/v1/datasets/p", nil, http.StatusOK, nil)
	do(t, http.MethodDelete, ts.URL+"/v1/datasets/p", nil, http.StatusNotFound, nil)
}

func TestHTTPServerSideLoad(t *testing.T) {
	ts, _ := newTestServer(t)
	path := filepath.Join(t.TempDir(), "h.bin")
	if err := hgio.SaveFile(path, paperExample()); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"path": %q}`, path)
	var stats struct{ NumEdges int }
	do(t, http.MethodPost, ts.URL+"/v1/datasets/disk/load",
		strings.NewReader(body), http.StatusOK, &stats)
	if stats.NumEdges != 4 {
		t.Fatalf("loaded dataset has %d edges, want 4", stats.NumEdges)
	}
	do(t, http.MethodPost, ts.URL+"/v1/datasets/disk/load",
		strings.NewReader(`{"path": "/no/such/file.hgr"}`), http.StatusBadRequest, nil)
}

// TestQueryV2RejectsDisagreeingOrientations: a server-side load maps a
// .bin file and trusts its vertex orientation, the file's last 4·nnz
// bytes. With vertex 0's row of the paper example rewritten from [0, 2]
// to [0, 1] every offset still holds, so the file loads; /v2/query must
// then report the disagreement instead of answering {0,1} W = 3 and
// {0,2} W = 2 (the right weights are 2 and 3), as a server fault: 500.
func TestQueryV2RejectsDisagreeingOrientations(t *testing.T) {
	ts, svc := newTestServer(t)
	path := filepath.Join(t.TempDir(), "paper.bin")
	if err := hgio.SaveFile(path, paperExample()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	row0 := data[len(data)-4*int(paperExample().Incidences()):]
	if got := binary.LittleEndian.Uint32(row0[4:]); got != 2 {
		t.Fatalf("vertex 0's second entry reads %d, want 2: the vertex orientation is not the file's tail", got)
	}
	binary.LittleEndian.PutUint32(row0[4:], 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := svc.Load("bad", path); err != nil {
		t.Fatalf("the rewritten file must still map: %v", err)
	}
	var out struct{ Error string }
	do(t, http.MethodPost, ts.URL+"/v2/query", strings.NewReader(`{"dataset":"bad","s":[1],"edges":true}`),
		http.StatusInternalServerError, &out)
	if !strings.Contains(out.Error, "orientations disagree") {
		t.Fatalf("got error %q, want it to name the orientations' disagreement", out.Error)
	}
}

// TestHTTPLoadBodyCapped: the {"path": ...} body of a server-side load
// is capped like every other JSON body — padding a valid request past
// maxQueryBytes answers 400, while the unpadded request loads.
func TestHTTPLoadBodyCapped(t *testing.T) {
	ts, _ := newTestServer(t)
	path := filepath.Join(t.TempDir(), "h.adj")
	if err := os.WriteFile(path, []byte(paperAdjacency), 0o644); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"path": %q}`, path)
	padded := strings.Repeat(" ", maxQueryBytes) + body
	do(t, http.MethodPost, ts.URL+"/v1/datasets/adj/load",
		strings.NewReader(padded), http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/v1/datasets/adj/load",
		strings.NewReader(body), http.StatusOK, nil)
}

// postQuery sends one /v2/query body, asserting the status code, and
// decodes the answer into out (when non-nil).
func postQuery(t *testing.T, ts *httptest.Server, body string, wantStatus int, out *queryResponseJSON) {
	t.Helper()
	var dst any
	if out != nil {
		*out = queryResponseJSON{}
		dst = out
	}
	do(t, http.MethodPost, ts.URL+"/v2/query", strings.NewReader(body), wantStatus, dst)
}

func TestHTTPQueryCachesAndMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	var first, second queryResponseJSON
	body := `{"dataset":"paper","s":[2],"edges":true}`
	postQuery(t, ts, body, http.StatusOK, &first)
	postQuery(t, ts, body, http.StatusOK, &second)
	if len(first.Results) != 1 || len(second.Results) != 1 {
		t.Fatalf("want one entry each, got %d and %d", len(first.Results), len(second.Results))
	}
	if first.Results[0].Cached || !second.Results[0].Cached {
		t.Fatalf("cached flags: first=%v second=%v, want false,true", first.Results[0].Cached, second.Results[0].Cached)
	}
	if first.Dataset != "paper" || first.Kind != "line" || first.Version == 0 {
		t.Fatalf("response header: %+v", first)
	}

	want := direct(t, paperExample(), 2, core.PipelineConfig{})
	wantEdges := make([][3]uint32, 0, want.Graph.NumEdges())
	for _, e := range want.Graph.Edges() {
		wantEdges = append(wantEdges, [3]uint32{e.U, e.V, e.W})
	}
	for _, resp := range []queryResponseJSON{first, second} {
		got := resp.Results[0]
		if !reflect.DeepEqual(got.EdgeList, wantEdges) {
			t.Fatalf("served edge list %v differs from library call %v", got.EdgeList, wantEdges)
		}
		if !reflect.DeepEqual(got.HyperedgeIDs, want.HyperedgeIDs) {
			t.Fatalf("served hyperedge IDs %v differ from library call %v", got.HyperedgeIDs, want.HyperedgeIDs)
		}
		if got.Nodes != want.Graph.NumNodes() || got.TimingsMS == nil {
			t.Fatalf("entry shape: %+v", got)
		}
		if resp.Plan == nil || resp.Plan.Strategy == "" {
			t.Fatal("response must carry the executed plan")
		}
	}

	// Edge lists are opt-in: without "edges" the counts stay.
	var lean queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK, &lean)
	if lean.Results[0].EdgeList != nil || lean.Results[0].Edges != len(wantEdges) {
		t.Fatalf("without edges: got %+v", lean.Results[0])
	}

	// Bad requests.
	for body, status := range map[string]int{
		`{"dataset":"paper"}`:                          http.StatusBadRequest,
		`{"s":[2]}`:                                    http.StatusBadRequest,
		`{"dataset":"paper","s":[0]}`:                  http.StatusBadRequest,
		`{"dataset":"paper","s":[2],"config":"9ZZ"}`:   http.StatusBadRequest,
		`{"dataset":"paper","s":[2],"kind":"star"}`:    http.StatusBadRequest,
		`{"dataset":"paper","s":[2],"workers":-1}`:     http.StatusBadRequest,
		`{"dataset":"paper","s":[2],"toplex":"maybe"}`: http.StatusBadRequest,
		`{"dataset":"paper","s":[2],"priority":"vip"}`: http.StatusBadRequest,
		`{"dataset":"nope","s":[2]}`:                   http.StatusNotFound,
	} {
		postQuery(t, ts, body, status, nil)
	}
}

func TestHTTPQueryClique(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	var got queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","kind":"clique","s":[1]}`, http.StatusOK, &got)
	want := direct(t, paperExample().Dual(), 1, core.PipelineConfig{})
	if e := got.Results[0]; got.Kind != "clique" || e.Edges != want.Graph.NumEdges() || e.Nodes != want.Graph.NumNodes() {
		t.Fatalf("clique graph %+v differs from direct dual run (%d nodes %d edges)",
			e, want.Graph.NumNodes(), want.Graph.NumEdges())
	}
}

// computedOf counts the entries of a response that ran Stages 1-4.
func computedOf(resp queryResponseJSON) (n int) {
	for _, e := range resp.Results {
		if !e.Cached {
			n++
		}
	}
	return n
}

// TestHTTPBackgroundQueryThenHit: the warmup recipe over HTTP — a
// "priority":"background" sweep computes every projection, after which
// interactive queries for any swept s are hits.
func TestHTTPBackgroundQueryThenHit(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	var warm, got queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","s":[1,2,3],"priority":"background"}`, http.StatusOK, &warm)
	if len(warm.Results) != 3 || computedOf(warm) != 3 {
		t.Fatalf("warming sweep: %+v", warm.Results)
	}
	postQuery(t, ts, `{"dataset":"paper","s":[3]}`, http.StatusOK, &got)
	if !got.Results[0].Cached {
		t.Fatal("query after the warming sweep must be served from cache")
	}

	// Duplicate s values are deduped, not misreported as hits.
	ts2, _ := newTestServer(t)
	uploadPaper(t, ts2)
	postQuery(t, ts2, `{"dataset":"paper","s":[2,2,2],"priority":"background"}`, http.StatusOK, &warm)
	if len(warm.Results) != 1 || computedOf(warm) != 1 {
		t.Fatalf("duplicate-s sweep on a cold cache: %+v", warm.Results)
	}
}

// TestHTTPQueryBeyondUint32: an s of 2³² or more swept beside s = 1 is
// an empty projection, not the s = 1 graph, and the entry a following
// single-s query is served is that empty one.
func TestHTTPQueryBeyondUint32(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	full := direct(t, paperExample(), 1, core.PipelineConfig{}).Graph.NumEdges()
	var sweep, single queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","s":[1,4294967297]}`, http.StatusOK, &sweep)
	if len(sweep.Results) != 2 || sweep.Results[0].S != 1 || sweep.Results[1].S != 1<<32+1 {
		t.Fatalf("sweep entries: %+v", sweep.Results)
	}
	if got := sweep.Results[0]; got.Edges != full {
		t.Fatalf("s=1: %d edges, want %d", got.Edges, full)
	}
	if got := sweep.Results[1]; got.Edges != 0 || got.Nodes != 0 {
		t.Fatalf("s=%d: %d nodes, %d edges, want an empty graph", got.S, got.Nodes, got.Edges)
	}
	postQuery(t, ts, `{"dataset":"paper","s":[4294967297]}`, http.StatusOK, &single)
	if got := single.Results[0]; got.Edges != 0 || got.Nodes != 0 {
		t.Fatalf("single s=%d (cached %v): %d nodes, %d edges, want an empty graph", got.S, got.Cached, got.Nodes, got.Edges)
	}
}

func TestHTTPBatchProjections(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	var batch queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","s":"1:3"}`, http.StatusOK, &batch)
	if len(batch.Results) != 3 {
		t.Fatalf("want 3 results for s=1:3, got %d", len(batch.Results))
	}
	if batch.Plan == nil || batch.Plan.Strategy == "" {
		t.Fatal("missing plan info")
	}
	for i, got := range batch.Results {
		if got.S != i+1 {
			t.Fatalf("results out of order: %+v", batch.Results)
		}
		if want := direct(t, paperExample(), got.S, core.PipelineConfig{}); got.Edges != want.Graph.NumEdges() {
			t.Fatalf("s=%d: %d edges, want %d", got.S, got.Edges, want.Graph.NumEdges())
		}
	}

	// The batch seeded the per-s cache: single queries hit.
	var single queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK, &single)
	if !single.Results[0].Cached {
		t.Fatal("single query after batch must be served from cache")
	}

	// Mixed list + range forms, and the dual orientation.
	postQuery(t, ts, `{"dataset":"paper","s":"1,2:3"}`, http.StatusOK, &batch)
	if len(batch.Results) != 3 || computedOf(batch) != 0 {
		t.Fatalf("s=1,2:3 after s=1:3: %+v", batch.Results)
	}
	postQuery(t, ts, `{"dataset":"paper","kind":"clique","s":"1,2"}`, http.StatusOK, &batch)
	if batch.Kind != "clique" || len(batch.Results) != 2 {
		t.Fatalf("clique sweep: %+v", batch)
	}

	// Bad s-lists.
	for _, sSpec := range []string{`"0"`, `"5:2"`, `"nope"`, `true`, `[]`, `"1:1000,2000:3000"`} {
		postQuery(t, ts, `{"dataset":"paper","s":`+sSpec+`}`, http.StatusBadRequest, nil)
	}
	// One value past core.MaxSValues in the array form.
	big := make([]byte, 0, 1<<13)
	for i := 1; i <= core.MaxSValues+1; i++ {
		if i > 1 {
			big = append(big, ',')
		}
		big = strconv.AppendInt(big, int64(i), 10)
	}
	postQuery(t, ts, `{"dataset":"paper","s":[`+string(big)+`]}`, http.StatusBadRequest, nil)
}

func TestHTTPMeasures(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	var got queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"components"}`, http.StatusOK, &got)
	// At s=2, hyperedges {0,1,2} form one component; hyperedge 3 has no
	// 2-incident partner and is squeezed out.
	comp := got.Results[0].Value
	if got.Measure != "components" || comp == nil || comp.Scalar == nil || *comp.Scalar != 1 ||
		!reflect.DeepEqual(comp.Groups, [][]uint32{{0, 1, 2}}) {
		t.Fatalf("components: %+v", got.Results[0])
	}

	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"distances","params":{"source":"0"}}`, http.StatusOK, &got)
	if e := got.Results[0]; !reflect.DeepEqual(e.Value.Ints, []int32{0, 1, 1}) || !reflect.DeepEqual(e.HyperedgeIDs, []uint32{0, 1, 2}) {
		t.Fatalf("distances: %+v", e)
	}
	// A required parameter is a request error; a source with no node at
	// this s is a per-s evaluation error.
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"distances"}`, http.StatusBadRequest, nil)
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"distances","params":{"source":"3"}}`, http.StatusBadGateway, &got)
	if got.Results[0].Error == "" {
		t.Fatalf("source 3 has no node at s=2: want a per-s error, got %+v", got.Results[0])
	}

	for _, name := range []string{"betweenness", "closeness", "harmonic", "pagerank"} {
		postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"`+name+`"}`, http.StatusOK, &got)
		if got.Measure != name || len(got.Results[0].Value.Scores) != 3 {
			t.Fatalf("centrality %s: %+v", name, got.Results[0])
		}
	}
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"eccentricity"}`, http.StatusOK, &got)
	if len(got.Results[0].Value.Ints) != 3 {
		t.Fatalf("eccentricity: %+v", got.Results[0])
	}
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"nope"}`, http.StatusBadRequest, nil)

	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"connectivity"}`, http.StatusOK, &got)
	if v := got.Results[0].Value.Scalar; v == nil || *v <= 0 {
		t.Fatalf("connectivity of a connected triangle must be positive, got %+v", got.Results[0].Value)
	}

	// dual measures work too
	postQuery(t, ts, `{"dataset":"paper","kind":"clique","s":[1],"measure":"components"}`, http.StatusOK, nil)
}

// TestRouteInventory pins the API surface: probing every method against
// every path the server has ever answered, exactly the listed
// method+path pairs reach a handler, and every removed v1 compute URL
// falls through to the mux's own 404/405. A handler's 404 (unknown
// dataset) is JSON; the mux's is text/plain, and only the mux says 405.
func TestRouteInventory(t *testing.T) {
	want := map[string]bool{
		"GET /healthz":               true,
		"GET /metrics":               true,
		"GET /v1/cache":              true,
		"GET /v1/measures":           true,
		"GET /v1/datasets":           true,
		"PUT /v1/datasets/x":         true,
		"GET /v1/datasets/x":         true,
		"DELETE /v1/datasets/x":      true,
		"POST /v1/datasets/x/load":   true,
		"POST /v2/query":             true,
		"POST /v2/ingest":            true,
		"GET /v2/datasets/x/changes": true,
	}
	paths := []string{
		"/healthz", "/metrics", "/v1/cache", "/v1/measures", "/v1/datasets",
		"/v1/datasets/x", "/v1/datasets/x/load",
		"/v2/query", "/v2/ingest", "/v2/datasets/x/changes",
	}
	removed := []string{
		"warmup", "slinegraph", "slinegraphs", "scliquegraph", "scliquegraphs",
		"measures", "components", "distances", "centrality", "connectivity",
		"costs",
	}
	for _, name := range removed {
		paths = append(paths, "/v1/datasets/x/"+name)
	}

	ts, _ := newTestServer(t)
	for _, path := range paths {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodDelete} {
			req, err := http.NewRequest(method, ts.URL+path+"?s=2&timeout_ms=1", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			muxMiss := resp.StatusCode == http.StatusMethodNotAllowed ||
				(resp.StatusCode == http.StatusNotFound && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain"))
			if route := method + " " + path; want[route] == muxMiss {
				t.Errorf("%s: status %d (%s), registered=%v, want registered=%v",
					route, resp.StatusCode, resp.Header.Get("Content-Type"), !muxMiss, want[route])
			}
		}
	}
}
