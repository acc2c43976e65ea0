package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hyperline/internal/serve"
)

// TestLoadgenReportInvariants is the fast (non-soak) sanity check of the
// generator itself: a 2-second run against an unlimited in-process
// server produces a coherent report and a benchjson-shaped artifact.
func TestLoadgenReportInvariants(t *testing.T) {
	svc := serve.New(serve.Config{})
	ts := httptest.NewServer(serve.NewHandler(svc))
	defer ts.Close()

	cfg := Config{
		BaseURL:    ts.URL,
		Dataset:    "d",
		UploadBody: []byte("0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n"),
		Duration:   2 * time.Second,
		Rate:       50,
		SMax:       3,
		Mix:        Mix{Sweep: 2, Measure: 1, Upload: 1},
		Seed:       7,
		Timeout:    5 * time.Second,
	}
	if err := Prime(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != rep.Dropped+rep.Sent {
		t.Fatalf("offered %d != dropped %d + sent %d", rep.Offered, rep.Dropped, rep.Sent)
	}
	if rep.Mismatches != 0 || rep.TransportErrors != 0 {
		t.Fatalf("clean run reported mismatches=%d transport=%d", rep.Mismatches, rep.TransportErrors)
	}
	if rep.StatusCounts[http.StatusOK] == 0 || rep.Latency.N == 0 {
		t.Fatalf("no successful samples: %+v", rep)
	}
	if rep.Latency.P50 > rep.Latency.P90 || rep.Latency.P90 > rep.Latency.P99 || rep.Latency.P99 > rep.Latency.Max {
		t.Fatalf("quantiles out of order: %+v", rep.Latency)
	}

	bj := rep.BenchJSON("test", time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	if bj.Label != "test" || len(bj.Benchmarks) != 9 {
		t.Fatalf("bad benchjson report: %+v", bj)
	}
	for _, b := range bj.Benchmarks {
		if b.Name == "" || b.Runs != 1 {
			t.Fatalf("bad benchmark entry: %+v", b)
		}
	}
	blob, err := json.Marshal(bj)
	if err != nil || !bytes.Contains(blob, []byte("ns_per_op")) {
		t.Fatalf("benchjson serialization broken: %v %s", err, blob)
	}
}
