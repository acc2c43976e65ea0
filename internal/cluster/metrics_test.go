package cluster

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"hyperline/internal/serve"
)

// routerFamilies is the router's metric inventory: every family
// /metrics exposes, with its TYPE. TestRouterMetricsExpositionShape
// holds the exposition to it in both directions, so a family is added
// or removed here deliberately.
var routerFamilies = map[string]string{
	"hyperrouter_queries_total":       "counter",
	"hyperrouter_fanout_shards_total": "counter",
	"hyperrouter_ingests_total":       "counter",
	"hyperrouter_retries_total":       "counter",
	"hyperrouter_shed_total":          "counter",
	"hyperrouter_subrequests_total":   "counter",
	"hyperrouter_requests_total":      "counter",
	"hyperrouter_replicas":            "gauge",
}

// TestRouterMetricsExpositionShape pins the router's metric inventory
// in both directions: every declared family is typed as declared and
// sampled after an upload, a query and an ingest, and every TYPE line
// and every sample belongs to a declared family.
func TestRouterMetricsExpositionShape(t *testing.T) {
	rep := realReplica(t, serve.New(serve.Config{}))
	_, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})
	putViaRouter(t, router.URL, "d", "0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n", 1)
	if status, _, data := postQuery(t, router.URL, `{"dataset":"d","s":[1,2]}`); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, data)
	}
	if status, out := postIngest(t, router.URL, `{"dataset":"d","inserts":[[4,5]]}`); status != http.StatusOK {
		t.Fatalf("ingest: status %d: %v", status, out)
	}

	resp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	types := make(map[string]string)
	sampled := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "", strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
		default:
			name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
			if _, ok := routerFamilies[name]; !ok {
				t.Errorf("sample %q belongs to no declared family", line)
			}
			sampled[name] = true
		}
	}
	for name, typ := range routerFamilies {
		if got := types[name]; got != typ {
			t.Errorf("family %s: TYPE %q, want %q", name, got, typ)
		}
		if !sampled[name] {
			t.Errorf("family %s declared but has no samples", name)
		}
	}
	for name, typ := range types {
		if _, ok := routerFamilies[name]; !ok {
			t.Errorf("undeclared family %s (%s) in the exposition: add it to routerFamilies deliberately", name, typ)
		}
	}
}

// TestRouterSubrequestsReconcileWithReplicas: every replica-bound
// request the router sends lands in one hyperrouter_subrequests_total
// bucket, so after an upload, a query, an ingest, a change-feed poll
// and a dataset list through the router, the router's sub-requests
// equal the responses its two replicas counted.
func TestRouterSubrequestsReconcileWithReplicas(t *testing.T) {
	repA := realReplica(t, serve.New(serve.Config{}))
	repB := realReplica(t, serve.New(serve.Config{}))
	_, router := newRouterServer(t, Config{Replicas: []string{repA.URL, repB.URL}, Replication: 2})
	putViaRouter(t, router.URL, "d", "0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n", 2)
	if status, _, data := postQuery(t, router.URL, `{"dataset":"d","s":[1,2]}`); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, data)
	}
	if status, out := postIngest(t, router.URL, `{"dataset":"d","inserts":[[4,5]]}`); status != http.StatusOK {
		t.Fatalf("ingest: status %d: %v", status, out)
	}
	for _, path := range []string{"/v2/datasets/d/changes?since=1", "/v1/datasets"} {
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	sum := func(m map[string]float64, family string) (n float64) {
		for k, v := range m {
			if strings.HasPrefix(k, family) {
				n += v
			}
		}
		return n
	}
	sub := sum(routerMetrics(t, router.URL), "hyperrouter_subrequests_total")
	rep := 0.0
	for _, u := range []string{repA.URL, repB.URL} {
		rep += sum(routerMetrics(t, u), "hyperline_http_responses_total")
	}
	if sub != rep {
		t.Fatalf("router sub-requests %g, replica responses %g", sub, rep)
	}
}
