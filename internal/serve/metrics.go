package serve

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/obs"
)

// This file is the observability half of traffic hardening: the
// Prometheus text exposition (version 0.0.4, written by internal/obs) of
// the counters the serving layer already keeps — cache hit rates, compute
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
	stages    [len(stageLabels)]histogram
	responses obs.Responses
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

// WriteMetrics renders the full Prometheus text exposition of the
// service: cache and compute counters, singleflight dedups, admission
// control state, HTTP response codes, and per-stage latency histograms.
func (s *Service) WriteMetrics(w io.Writer) error {
	_, err := s.metricsDoc().WriteTo(w)
	return err
}

// metricsDoc builds the exposition WriteMetrics and GET /metrics serve.
func (s *Service) metricsDoc() *obs.Doc {
	d := &obs.Doc{}

	writeCache := func(which string, cs CacheStats) {
		p := "hyperline_" + which + "_cache_"
		d.Counter(p+"hits_total", which+" cache hits", float64(cs.Hits))
		d.Counter(p+"misses_total", which+" cache misses", float64(cs.Misses))
		d.Counter(p+"evictions_total", which+" cache evictions", float64(cs.Evictions))
		d.Gauge(p+"entries", which+" cache current entries", float64(cs.Entries))
		d.Gauge(p+"capacity", which+" cache capacity", float64(cs.Capacity))
		d.Counter(p+"disk_hits_total", which+" cache memory misses served from the spill tier", float64(cs.DiskHits))
		d.Counter(p+"disk_misses_total", which+" cache memory misses that also missed the spill tier", float64(cs.DiskMisses))
	}
	writeCache("projection", s.CacheStats())
	writeCache("measure", s.mcache.Stats())

	sp := s.SpillStats()
	d.Gauge("hyperline_spill_entries", "entries in the on-disk spill store", float64(sp.Entries))
	d.Gauge("hyperline_spill_bytes", "bytes in the on-disk spill store", float64(sp.Bytes))
	d.Counter("hyperline_spill_writes_total", "entries written to the spill store", float64(sp.Writes))
	d.Counter("hyperline_spill_evictions_total", "spill files evicted to fit the disk budget", float64(sp.Evictions))
	d.Counter("hyperline_spill_errors_total", "spill reads or writes that failed (degraded to cold misses)", float64(sp.Errors))

	d.Counter("hyperline_projection_computes_total", "per-s projections actually computed (Stages 1-4 ran)", float64(s.projectionComputes.Load()))
	d.Counter("hyperline_measure_computes_total", "measure evaluations actually computed", float64(s.measureComputes.Load()))
	d.Counter("hyperline_projection_materializations_total", "patched projections whose deferred rows were built (by a row read, a spill, or a patch past the pending-list bound)", float64(s.projectionMaterializations.Load()))
	d.Counter("hyperline_dataset_builds_total", "pending dataset versions built into flat CSR (by a cache-miss pass, a snapshot, a Hypergraph read, or a delta past the pending bound)", float64(s.datasetBuilds.Load()))

	d.Counter("hyperline_ingest_applied_total", "deltas applied via streaming ingest", float64(s.ingestsApplied.Load()))
	d.Family("hyperline_ingest_projection_outcomes_total", "projection cache entries walked across delta version bumps, by outcome", "counter")
	d.Sample("hyperline_ingest_projection_outcomes_total", `outcome="migrated"`, float64(s.ingestMigrated.Load()))
	d.Sample("hyperline_ingest_projection_outcomes_total", `outcome="patched"`, float64(s.ingestPatched.Load()))
	d.Sample("hyperline_ingest_projection_outcomes_total", `outcome="dropped"`, float64(s.ingestDropped.Load()))
	d.Family("hyperline_ingest_measure_outcomes_total", "measure cache entries walked across delta version bumps, by outcome", "counter")
	d.Sample("hyperline_ingest_measure_outcomes_total", `outcome="migrated"`, float64(s.ingestMeasureMigrated.Load()))
	d.Sample("hyperline_ingest_measure_outcomes_total", `outcome="dropped"`, float64(s.ingestMeasureDropped.Load()))

	d.Family("hyperline_singleflight_dedups_total", "requests served by joining another caller's in-flight computation", "counter")
	d.Sample("hyperline_singleflight_dedups_total", `flight="projection"`, float64(s.sfDedups.Load()))
	d.Sample("hyperline_singleflight_dedups_total", `flight="measure"`, float64(s.msfDedups.Load()))

	d.Gauge("hyperline_datasets", "registered datasets", float64(s.reg.Len()))

	as := s.adm.Stats()
	d.Family("hyperline_admission_admitted_total", "admitted units of Stage-3 work", "counter")
	d.Sample("hyperline_admission_admitted_total", `priority="interactive"`, float64(as.AdmittedInteractive))
	d.Sample("hyperline_admission_admitted_total", `priority="background"`, float64(as.AdmittedBackground))
	d.Family("hyperline_admission_shed_total", "requests shed by admission control", "counter")
	d.Sample("hyperline_admission_shed_total", `priority="interactive"`, float64(as.ShedInteractive))
	d.Sample("hyperline_admission_shed_total", `priority="background"`, float64(as.ShedBackground))
	d.Counter("hyperline_admission_dataset_shed_total", "requests shed by the per-dataset inflight quota (also in shed_total)", float64(as.ShedPerDataset))
	d.Counter("hyperline_admission_queued_total", "admissions that waited in the queue", float64(as.Queued))
	d.Counter("hyperline_admission_queue_cancelled_total", "queued admissions abandoned by context expiry", float64(as.QueueCancelled))
	d.Gauge("hyperline_admission_inflight_cost_units", "admitted Stage-3 work in cost units (one per 50000 wedge pairs)", float64(as.InflightCost))
	d.Gauge("hyperline_admission_inflight_requests", "admitted Stage-3 passes currently running", float64(as.InflightRequests))
	d.Gauge("hyperline_admission_queue_length", "interactive admissions currently waiting", float64(as.QueueLength))

	s.metrics.responses.Write(d, "hyperline_http_responses_total", "HTTP responses by status code (excluding /metrics scrapes and /healthz probes)")

	d.Family("hyperline_stage_duration_seconds", "pipeline stage wall time per computed pass", "histogram")
	for i, stage := range stageLabels {
		h := &s.metrics.stages[i]
		cum := int64(0)
		for bi, bound := range latencyBuckets {
			cum += h.buckets[bi].Load()
			d.Sample("hyperline_stage_duration_seconds_bucket",
				fmt.Sprintf(`stage="%s",le="%g"`, stage, bound), float64(cum))
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		d.Sample("hyperline_stage_duration_seconds_bucket",
			fmt.Sprintf(`stage="%s",le="+Inf"`, stage), float64(cum))
		d.Sample("hyperline_stage_duration_seconds_sum",
			fmt.Sprintf(`stage="%s"`, stage), time.Duration(h.sumNS.Load()).Seconds())
		d.Sample("hyperline_stage_duration_seconds_count",
			fmt.Sprintf(`stage="%s"`, stage), float64(h.count.Load()))
	}
	return d
}
