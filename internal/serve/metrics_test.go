package serve

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperline/internal/core"
)

// metricFamilies is the exposition contract: every family /metrics must
// export, with its declared type. Scrapers key dashboards and alerts on
// these names, so additions belong here and removals are breaking.
var metricFamilies = map[string]string{
	"hyperline_projection_cache_hits_total":        "counter",
	"hyperline_projection_cache_misses_total":      "counter",
	"hyperline_projection_cache_evictions_total":   "counter",
	"hyperline_projection_cache_entries":           "gauge",
	"hyperline_projection_cache_capacity":          "gauge",
	"hyperline_projection_cache_disk_hits_total":   "counter",
	"hyperline_projection_cache_disk_misses_total": "counter",
	"hyperline_measure_cache_hits_total":           "counter",
	"hyperline_measure_cache_misses_total":         "counter",
	"hyperline_measure_cache_evictions_total":      "counter",
	"hyperline_measure_cache_entries":              "gauge",
	"hyperline_measure_cache_capacity":             "gauge",
	"hyperline_measure_cache_disk_hits_total":      "counter",
	"hyperline_measure_cache_disk_misses_total":    "counter",
	"hyperline_spill_entries":                      "gauge",
	"hyperline_spill_bytes":                        "gauge",
	"hyperline_spill_writes_total":                 "counter",
	"hyperline_spill_evictions_total":              "counter",
	"hyperline_spill_errors_total":                 "counter",
	"hyperline_projection_computes_total":          "counter",
	"hyperline_measure_computes_total":             "counter",
	"hyperline_projection_materializations_total":  "counter",
	"hyperline_dataset_builds_total":               "counter",
	"hyperline_ingest_applied_total":               "counter",
	"hyperline_ingest_projection_outcomes_total":   "counter",
	"hyperline_ingest_measure_outcomes_total":      "counter",
	"hyperline_singleflight_dedups_total":          "counter",
	"hyperline_datasets":                           "gauge",
	"hyperline_admission_admitted_total":           "counter",
	"hyperline_admission_shed_total":               "counter",
	"hyperline_admission_dataset_shed_total":       "counter",
	"hyperline_admission_queued_total":             "counter",
	"hyperline_admission_queue_cancelled_total":    "counter",
	"hyperline_admission_inflight_cost_units":      "gauge",
	"hyperline_admission_inflight_requests":        "gauge",
	"hyperline_admission_queue_length":             "gauge",
	"hyperline_http_responses_total":               "counter",
	"hyperline_stage_duration_seconds":             "histogram",
}

// scrapeMetrics GETs /metrics and parses it into declared families and
// flat name{labels} → value samples.
func scrapeMetrics(t *testing.T, url string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types = make(map[string]string)
	samples = make(map[string]float64)
	helped := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			helped[strings.Fields(line)[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if types[f[2]] != "" {
				t.Fatalf("family %s declared twice", f[2])
			}
			types[f[2]] = f[3]
			if !helped[f[2]] {
				t.Fatalf("family %s has no # HELP line before # TYPE", f[2])
			}
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("bad sample line %q", line)
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			samples[line[:i]] = v
		}
	}
	return types, samples
}

// family strips labels and histogram suffixes off a sample name.
func family(sample string) string {
	name := sample
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name {
			return base
		}
	}
	return name
}

// TestMetricsExpositionShape pins the metric inventory in both
// directions: every contractual family is declared and sampled, and no
// undeclared family appears.
func TestMetricsExpositionShape(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	// Touch every subsystem so histograms and dedups have samples:
	// a compute (projection computes + stage timings), a repeat (cache
	// hits), and a measure query.
	postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK, nil)
	postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK, nil)
	postQuery(t, ts, `{"dataset":"paper","s":[2],"measure":"components"}`, http.StatusOK, nil)

	types, samples := scrapeMetrics(t, ts.URL)
	for name, typ := range metricFamilies {
		if got := types[name]; got != typ {
			t.Errorf("family %s: declared %q, want %q", name, got, typ)
		}
	}
	for name, typ := range types {
		if metricFamilies[name] != typ {
			t.Errorf("undeclared family %s (%s) in exposition — update the contract test deliberately", name, typ)
		}
	}
	sampled := make(map[string]bool)
	for s := range samples {
		f := family(s)
		if _, ok := metricFamilies[f]; !ok {
			t.Errorf("sample %q belongs to no declared family", s)
		}
		sampled[f] = true
	}
	for name := range metricFamilies {
		if !sampled[name] {
			t.Errorf("family %s declared but has no samples", name)
		}
	}

	// Histogram internal consistency: buckets cumulative, +Inf == count.
	for _, stage := range stageLabels {
		inf := samples[`hyperline_stage_duration_seconds_bucket{stage="`+stage+`",le="+Inf"}`]
		count := samples[`hyperline_stage_duration_seconds_count{stage="`+stage+`"}`]
		if inf != count {
			t.Errorf("stage %s: +Inf bucket %g != count %g", stage, inf, count)
		}
		if count == 0 {
			t.Errorf("stage %s: no observations after computed queries", stage)
		}
	}
}

// TestMetricsCountersMonotonicAndTruthful checks counters only ever
// grow across scrapes, and that the growth matches what the traffic
// actually did: hits on repeats, computes on misses, response codes
// reconciling with the requests sent (with /metrics itself excluded).
func TestMetricsCountersMonotonicAndTruthful(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK, nil)
	_, before := scrapeMetrics(t, ts.URL)

	// One cache hit, one fresh compute, one 404.
	postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK, nil)
	postQuery(t, ts, `{"dataset":"paper","s":[3]}`, http.StatusOK, nil)
	postQuery(t, ts, `{"dataset":"nope","s":[2]}`, http.StatusNotFound, nil)
	_, after := scrapeMetrics(t, ts.URL)

	for name, v := range before {
		if family(name) == "hyperline_stage_duration_seconds" || strings.HasSuffix(family(name), "_total") {
			if after[name] < v {
				t.Errorf("counter %s went backwards: %g -> %g", name, v, after[name])
			}
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	if d := delta("hyperline_projection_cache_hits_total"); d != 1 {
		t.Errorf("projection cache hits grew by %g, want 1", d)
	}
	if d := delta("hyperline_projection_computes_total"); d != 1 {
		t.Errorf("projection computes grew by %g, want 1", d)
	}
	if d := delta(`hyperline_http_responses_total{code="200"}`); d != 2 {
		t.Errorf(`200s grew by %g, want 2 (scrapes must not count)`, d)
	}
	if d := delta(`hyperline_http_responses_total{code="404"}`); d != 1 {
		t.Errorf("404s grew by %g, want 1", d)
	}
}

// TestStageHistogramsCoverWholeSweep: the stage histograms record one
// observation per pipeline pass, and a sweep's pass is all of its s
// values — squeeze holds every build of the sweep, not one of them.
// At one worker the builds run one after another, so the recorded
// squeeze is at least the sum of the per-s build times.
func TestStageHistogramsCoverWholeSweep(t *testing.T) {
	svc := New(Config{})
	svc.Add("g", sweepDataset())
	before := make([]histogramSnap, len(stageLabels))
	for i := range stageLabels {
		before[i] = snapHistogram(&svc.metrics.stages[i])
	}
	qr, err := svc.Query(context.Background(), lineQ("g", core.PipelineConfig{Core: core.Config{Workers: 1}}, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	var builds time.Duration
	for _, e := range qr.Entries {
		if e.Err != nil || e.Cached {
			t.Fatalf("s=%d: err %v, cached %v; want a fresh projection", e.S, e.Err, e.Cached)
		}
		builds += e.Res.Timings.Squeeze
	}
	for i, label := range stageLabels {
		got := snapHistogram(&svc.metrics.stages[i])
		if n := got.count - before[i].count; n != 1 {
			t.Errorf("stage %s: count rose by %d over one sweep pass, want 1", label, n)
		}
	}
	squeeze := time.Duration(svc.metrics.stages[3].sumNS.Load() - before[3].sumNS)
	if squeeze < builds {
		t.Errorf("squeeze histogram gained %v for the pass, less than its three builds' %v", squeeze, builds)
	}
}

type histogramSnap struct{ count, sumNS int64 }

func snapHistogram(h *histogram) histogramSnap {
	return histogramSnap{h.count.Load(), h.sumNS.Load()}
}
