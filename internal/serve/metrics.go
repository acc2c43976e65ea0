package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperline/internal/core"
)

// This file is the observability half of traffic hardening: a
// stdlib-only Prometheus text exposition (version 0.0.4) of the
// counters the serving layer already keeps — cache hit rates, compute
// counters, singleflight dedups, admission occupancy — plus per-stage
// latency histograms fed from pipeline StageTimings. Metric names are a
// contract (see TestMetricsExpositionShape): renames and removals are
// breaking changes for scrapers.

// stageLabels orders the per-stage histograms the way StageTimings
// orders the pipeline; "total" is the wall time of a pass.
var stageLabels = [...]string{"preprocess", "toplex", "soverlap", "squeeze", "total"}

// latencyBuckets are the histogram upper bounds in seconds, spanning
// cache-hit microseconds to multi-second saturated passes.
var latencyBuckets = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram with atomic cells, safe
// for concurrent observation and scraping (scrapes are not atomic
// snapshots across cells — the usual Prometheus contract).
type histogram struct {
	buckets [len(latencyBuckets) + 1]atomic.Int64 // last cell = +Inf
	count   atomic.Int64
	sumNS   atomic.Int64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], secs)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// metrics aggregates the counters the Service itself does not already
// keep: stage histograms and HTTP response codes. Everything else
// (cache stats, admission stats, compute counters) is read live at
// scrape time from its owner.
type metrics struct {
	stages [len(stageLabels)]histogram

	mu        sync.Mutex
	responses map[int]int64
}

func newMetrics() *metrics {
	return &metrics{responses: make(map[int]int64)}
}

// observePass feeds one pipeline pass into the histograms: Stages 1-3
// are shared by every s of the pass, total is the pass's wall time, and
// squeeze is what that wall time spent beyond Stages 1-3 — all of the
// pass's Stage-4 builds, never negative.
func (m *metrics) observePass(t core.StageTimings, wall time.Duration) {
	shared := t.Preprocess + t.Toplex + t.SOverlap
	m.stages[0].observe(t.Preprocess)
	m.stages[1].observe(t.Toplex)
	m.stages[2].observe(t.SOverlap)
	m.stages[3].observe(max(wall-shared, 0))
	m.stages[4].observe(wall)
}

// countResponse records one HTTP response code.
func (m *metrics) countResponse(code int) {
	m.mu.Lock()
	m.responses[code]++
	m.mu.Unlock()
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the response-code counter. Scrapes of
// /metrics and /healthz probes (routers poll replica health) are not
// counted, so the response counters reconcile exactly with the traffic
// a load generator or router sent.
func (m *metrics) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" || r.URL.Path == "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		m.countResponse(rec.code)
	})
}

// metricWriter accumulates one exposition document.
type metricWriter struct {
	b strings.Builder
}

func (w *metricWriter) header(name, help, typ string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (w *metricWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// %g keeps integers integral and avoids trailing zeros.
	fmt.Fprintf(&w.b, "%s%s %g\n", name, labels, v)
}

// WriteMetrics renders the full Prometheus text exposition of the
// service: cache and compute counters, singleflight dedups, admission
// control state, HTTP response codes, and per-stage latency histograms.
func (s *Service) WriteMetrics(w io.Writer) error {
	mw := &metricWriter{}

	writeCache := func(which string, cs CacheStats) {
		p := "hyperline_" + which + "_cache_"
		mw.header(p+"hits_total", which+" cache hits", "counter")
		mw.value(p+"hits_total", "", float64(cs.Hits))
		mw.header(p+"misses_total", which+" cache misses", "counter")
		mw.value(p+"misses_total", "", float64(cs.Misses))
		mw.header(p+"evictions_total", which+" cache evictions", "counter")
		mw.value(p+"evictions_total", "", float64(cs.Evictions))
		mw.header(p+"entries", which+" cache current entries", "gauge")
		mw.value(p+"entries", "", float64(cs.Entries))
		mw.header(p+"capacity", which+" cache capacity", "gauge")
		mw.value(p+"capacity", "", float64(cs.Capacity))
		mw.header(p+"disk_hits_total", which+" cache memory misses served from the spill tier", "counter")
		mw.value(p+"disk_hits_total", "", float64(cs.DiskHits))
		mw.header(p+"disk_misses_total", which+" cache memory misses that also missed the spill tier", "counter")
		mw.value(p+"disk_misses_total", "", float64(cs.DiskMisses))
	}
	writeCache("projection", s.CacheStats())
	writeCache("measure", s.mcache.Stats())

	sp := s.SpillStats()
	mw.header("hyperline_spill_entries", "entries in the on-disk spill store", "gauge")
	mw.value("hyperline_spill_entries", "", float64(sp.Entries))
	mw.header("hyperline_spill_bytes", "bytes in the on-disk spill store", "gauge")
	mw.value("hyperline_spill_bytes", "", float64(sp.Bytes))
	mw.header("hyperline_spill_writes_total", "entries written to the spill store", "counter")
	mw.value("hyperline_spill_writes_total", "", float64(sp.Writes))
	mw.header("hyperline_spill_evictions_total", "spill files evicted to fit the disk budget", "counter")
	mw.value("hyperline_spill_evictions_total", "", float64(sp.Evictions))
	mw.header("hyperline_spill_errors_total", "spill reads or writes that failed (degraded to cold misses)", "counter")
	mw.value("hyperline_spill_errors_total", "", float64(sp.Errors))

	mw.header("hyperline_projection_computes_total", "per-s projections actually computed (Stages 1-4 ran)", "counter")
	mw.value("hyperline_projection_computes_total", "", float64(s.projectionComputes.Load()))
	mw.header("hyperline_measure_computes_total", "measure evaluations actually computed", "counter")
	mw.value("hyperline_measure_computes_total", "", float64(s.measureComputes.Load()))
	mw.header("hyperline_projection_materializations_total", "patched projections whose deferred rows were built (by a row read, a spill, or a patch past the pending-list bound)", "counter")
	mw.value("hyperline_projection_materializations_total", "", float64(s.projectionMaterializations.Load()))
	mw.header("hyperline_dataset_builds_total", "pending dataset versions built into flat CSR (by a cache-miss pass, a snapshot, a Hypergraph read, or a delta past the pending bound)", "counter")
	mw.value("hyperline_dataset_builds_total", "", float64(s.datasetBuilds.Load()))

	mw.header("hyperline_ingest_applied_total", "deltas applied via streaming ingest", "counter")
	mw.value("hyperline_ingest_applied_total", "", float64(s.ingestsApplied.Load()))
	mw.header("hyperline_ingest_projection_outcomes_total", "projection cache entries walked across delta version bumps, by outcome", "counter")
	mw.value("hyperline_ingest_projection_outcomes_total", `outcome="migrated"`, float64(s.ingestMigrated.Load()))
	mw.value("hyperline_ingest_projection_outcomes_total", `outcome="patched"`, float64(s.ingestPatched.Load()))
	mw.value("hyperline_ingest_projection_outcomes_total", `outcome="dropped"`, float64(s.ingestDropped.Load()))
	mw.header("hyperline_ingest_measure_outcomes_total", "measure cache entries walked across delta version bumps, by outcome", "counter")
	mw.value("hyperline_ingest_measure_outcomes_total", `outcome="migrated"`, float64(s.ingestMeasureMigrated.Load()))
	mw.value("hyperline_ingest_measure_outcomes_total", `outcome="dropped"`, float64(s.ingestMeasureDropped.Load()))

	mw.header("hyperline_singleflight_dedups_total", "requests served by joining another caller's in-flight computation", "counter")
	mw.value("hyperline_singleflight_dedups_total", `flight="projection"`, float64(s.sfDedups.Load()))
	mw.value("hyperline_singleflight_dedups_total", `flight="measure"`, float64(s.msfDedups.Load()))

	mw.header("hyperline_datasets", "registered datasets", "gauge")
	mw.value("hyperline_datasets", "", float64(s.reg.Len()))

	as := s.adm.Stats()
	mw.header("hyperline_admission_admitted_total", "admitted units of Stage-3 work", "counter")
	mw.value("hyperline_admission_admitted_total", `priority="interactive"`, float64(as.AdmittedInteractive))
	mw.value("hyperline_admission_admitted_total", `priority="background"`, float64(as.AdmittedBackground))
	mw.header("hyperline_admission_shed_total", "requests shed by admission control", "counter")
	mw.value("hyperline_admission_shed_total", `priority="interactive"`, float64(as.ShedInteractive))
	mw.value("hyperline_admission_shed_total", `priority="background"`, float64(as.ShedBackground))
	mw.header("hyperline_admission_dataset_shed_total", "requests shed by the per-dataset inflight quota (also in shed_total)", "counter")
	mw.value("hyperline_admission_dataset_shed_total", "", float64(as.ShedPerDataset))
	mw.header("hyperline_admission_queued_total", "admissions that waited in the queue", "counter")
	mw.value("hyperline_admission_queued_total", "", float64(as.Queued))
	mw.header("hyperline_admission_queue_cancelled_total", "queued admissions abandoned by context expiry", "counter")
	mw.value("hyperline_admission_queue_cancelled_total", "", float64(as.QueueCancelled))
	mw.header("hyperline_admission_inflight_cost_units", "admitted Stage-3 work in cost units (one per 50000 wedge pairs)", "gauge")
	mw.value("hyperline_admission_inflight_cost_units", "", float64(as.InflightCost))
	mw.header("hyperline_admission_inflight_requests", "admitted Stage-3 passes currently running", "gauge")
	mw.value("hyperline_admission_inflight_requests", "", float64(as.InflightRequests))
	mw.header("hyperline_admission_queue_length", "interactive admissions currently waiting", "gauge")
	mw.value("hyperline_admission_queue_length", "", float64(as.QueueLength))

	m := s.metrics
	m.mu.Lock()
	codes := make([]int, 0, len(m.responses))
	for c := range m.responses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	mw.header("hyperline_http_responses_total", "HTTP responses by status code (excluding /metrics scrapes)", "counter")
	for _, c := range codes {
		mw.value("hyperline_http_responses_total", fmt.Sprintf(`code="%d"`, c), float64(m.responses[c]))
	}
	m.mu.Unlock()

	mw.header("hyperline_stage_duration_seconds", "pipeline stage wall time per computed pass", "histogram")
	for i, stage := range stageLabels {
		h := &m.stages[i]
		cum := int64(0)
		for bi, bound := range latencyBuckets {
			cum += h.buckets[bi].Load()
			mw.value("hyperline_stage_duration_seconds_bucket",
				fmt.Sprintf(`stage="%s",le="%g"`, stage, bound), float64(cum))
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		mw.value("hyperline_stage_duration_seconds_bucket",
			fmt.Sprintf(`stage="%s",le="+Inf"`, stage), float64(cum))
		mw.value("hyperline_stage_duration_seconds_sum",
			fmt.Sprintf(`stage="%s"`, stage), time.Duration(h.sumNS.Load()).Seconds())
		mw.value("hyperline_stage_duration_seconds_count",
			fmt.Sprintf(`stage="%s"`, stage), float64(h.count.Load()))
	}

	_, err := io.WriteString(w, mw.b.String())
	return err
}

// handleMetrics serves GET /metrics.
func handleMetrics(svc *Service, w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	svc.WriteMetrics(w)
}
