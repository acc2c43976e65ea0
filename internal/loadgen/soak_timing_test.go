//go:build timing

package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyperline/internal/gen"
	"hyperline/internal/hgio"
	"hyperline/internal/serve"
)

// soakBody builds the adjacency payload the soak uploads and churns.
func soakBody(t *testing.T) []byte {
	t.Helper()
	h := gen.Community(gen.CommunityConfig{
		Seed: 11, NumVertices: 400, NumCommunities: 12,
		MeanCommunitySize: 12, EdgesPerCommunity: 12, Background: 100,
	})
	var buf bytes.Buffer
	if err := hgio.WriteAdjacency(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// baselineObservation answers one traffic key on a fresh, state-free
// server — the uncached ground truth a soak's answers must match.
func baselineObservation(t *testing.T, url, dataset, key string) Observation {
	t.Helper()
	req := map[string]any{"dataset": dataset}
	// Observation keys are version-prefixed ("v3/line/s=2"); the soak
	// only re-PUTs the identical body, so every version answers like
	// the fresh baseline and the prefix is irrelevant here.
	if strings.HasPrefix(key, "v") {
		if i := strings.Index(key, "/"); i >= 0 {
			key = key[i+1:]
		}
	}
	var s int
	switch {
	case strings.HasPrefix(key, "line/s="):
		fmt.Sscanf(key, "line/s=%d", &s)
	case strings.HasPrefix(key, "measure/"):
		var m string
		if i := strings.LastIndex(key, "/s="); i >= 0 {
			m = strings.TrimPrefix(key[:i], "measure/")
			fmt.Sscanf(key[i:], "/s=%d", &s)
		}
		req["measure"] = m
	default:
		t.Fatalf("unrecognized traffic key %q", key)
	}
	req["s"] = []int{s}
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			Nodes int             `json:"nodes"`
			Edges int             `json:"edges"`
			Value json.RawMessage `json:"value"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Results) != 1 {
		t.Fatalf("baseline query for %q: %v (%d results)", key, err, len(out.Results))
	}
	r := out.Results[0]
	return Observation{Nodes: r.Nodes, Edges: r.Edges, Value: string(r.Value)}
}

// TestSoakMixedWorkload runs 30 seconds of mixed sweep/measure/upload
// traffic — with deliberately tiny caches and tight admission limits,
// so eviction, version churn, queueing, and shedding all happen
// constantly — against an in-process server, then audits the books:
//
//   - every answer during the run was internally consistent (zero
//     mismatches across cache hits, dedups, and version churn), and
//     byte-identical to a fresh uncached server's answer;
//   - every arrival is accounted for: offered == dropped + sent, and
//     sent == Σ per-status responses + transport errors;
//   - the server's /metrics response counters reconcile exactly with
//     the client's per-status counts;
//   - admission drained back to zero occupancy.
//
// It sits behind the timing tag: 30 s of sustained load belongs to CI's
// timing lane (every push), not to tier-1.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: 30s of sustained load, skipped under -short")
	}

	svc := serve.New(serve.Config{
		CacheEntries:        3,
		MeasureCacheEntries: 4,
		MaxInflight:         2,
		ShedCostBudget:      20,
		MaxQueue:            4,
	})
	ts := httptest.NewServer(serve.NewHandler(svc))
	defer ts.Close()

	body := soakBody(t)
	cfg := Config{
		BaseURL:        ts.URL,
		Dataset:        "soak",
		UploadBody:     body,
		Duration:       30 * time.Second,
		Rate:           60,
		MaxOutstanding: 64,
		SMax:           4,
		Measure:        "components",
		Mix:            Mix{Sweep: 6, Measure: 3, Upload: 1},
		Timeout:        10 * time.Second,
		Seed:           42,
	}
	ctx := context.Background()
	if err := Prime(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak report:\n%s", rep.Summary())

	// Arrival accounting.
	if rep.Offered != rep.Dropped+rep.Sent {
		t.Errorf("offered %d != dropped %d + sent %d", rep.Offered, rep.Dropped, rep.Sent)
	}
	var answered int64
	for _, n := range rep.StatusCounts {
		answered += n
	}
	if rep.Sent != answered+rep.TransportErrors {
		t.Errorf("sent %d != answered %d + transport errors %d", rep.Sent, answered, rep.TransportErrors)
	}
	if rep.TransportErrors != 0 {
		t.Errorf("%d transport errors against an in-process server", rep.TransportErrors)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d mismatched answers during the soak", rep.Mismatches)
	}
	if rep.StatusCounts[http.StatusOK] == 0 {
		t.Fatal("soak produced no successful responses")
	}

	// Byte-identical to an uncached baseline: replay every observed key
	// against a fresh server with no caches warmed, no churn, no limits.
	baseSvc := serve.New(serve.Config{})
	baseTS := httptest.NewServer(serve.NewHandler(baseSvc))
	defer baseTS.Close()
	breq, _ := http.NewRequest(http.MethodPut, baseTS.URL+"/v1/datasets/soak?format=adj", bytes.NewReader(body))
	if bresp, err := http.DefaultClient.Do(breq); err != nil || bresp.StatusCode != http.StatusOK {
		t.Fatalf("baseline upload: %v %v", bresp, err)
	}
	if len(rep.Observed) == 0 {
		t.Fatal("soak observed no answers to compare")
	}
	for key, obs := range rep.Observed {
		if base := baselineObservation(t, baseTS.URL, "soak", key); base != obs {
			t.Errorf("key %s: soak answered %+v, uncached baseline %+v", key, obs, base)
		}
	}

	// Server-side reconciliation: response counters match the client's
	// books exactly (the /metrics handler excludes its own scrapes), and
	// nothing is still admitted or queued after the drain.
	metrics, err := FetchMetrics(ctx, nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Prime's upload is the one request the server saw beyond the run.
	wantCounts := map[int]int64{}
	for code, n := range rep.StatusCounts {
		wantCounts[code] = n
	}
	wantCounts[http.StatusOK]++
	for code, want := range wantCounts {
		name := fmt.Sprintf(`hyperline_http_responses_total{code="%d"}`, code)
		if got := int64(metrics[name]); got != want {
			t.Errorf("%s = %d on the server, client counted %d", name, got, want)
		}
	}
	as := svc.AdmissionStats()
	if as.InflightRequests != 0 || as.InflightCost != 0 || as.QueueLength != 0 {
		t.Errorf("admission not drained after the soak: %+v", as)
	}
	if shed := as.ShedInteractive + as.ShedBackground; int64(shed) > rep.StatusCounts[http.StatusTooManyRequests] {
		// Every server-side shed surfaces as at least one client 429
		// (dedup can fan one shed out to several waiters, never the
		// reverse).
		t.Errorf("server shed %d flights but clients saw only %d 429s",
			shed, rep.StatusCounts[http.StatusTooManyRequests])
	}
}
