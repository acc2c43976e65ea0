// Package serve is the long-running query layer over the s-line graph
// pipeline: a registry of named hypergraph datasets, an LRU cache of
// pipeline results keyed by (dataset, version, core.OutputKey), and
// singleflight deduplication so concurrent identical requests run
// Stages 1-4 once and share one result.
//
// The paper treats s-line graphs as a multi-resolution family — the
// applications repeatedly query the same hypergraph at many s values —
// so the unit of caching is one materialized projection
// (core.PipelineResult), and multi-s batches are first-class requests:
// Query collects the uncached s values of a request and runs them as
// one core.RunBatch call, letting the planner decide whether a single
// ensemble counting pass or per-s passes serve the batch. Results are
// immutable by convention: every cache reader receives the same
// pointer, and the s-measures of Stage 5 only read the graph.
//
// Query and Ingest are the only compute entries. cmd/hyperlined exposes
// them over HTTP/JSON (POST /v2/query, POST /v2/ingest);
// hyperline.Session exposes Query to library users.
package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

// Config configures a Service.
type Config struct {
	// CacheEntries is the LRU capacity in cached pipeline results
	// (0 = DefaultCacheEntries).
	CacheEntries int
	// MeasureCacheEntries is the LRU capacity in cached measure
	// values (0 = DefaultMeasureCacheEntries).
	MeasureCacheEntries int

	// MaxInflight bounds concurrently admitted Stage-3 passes
	// (0 = unlimited). Cache hits and measure evaluations are never
	// gated — admission protects the expensive pipeline work only.
	MaxInflight int
	// ShedCostBudget bounds the summed planner-estimated cost of
	// admitted Stage-3 work, in cost units of 50 000 wedge pairs each
	// (0 = unlimited). When both limits are
	// exceeded-or-unset the service behaves exactly as before this
	// knob existed.
	ShedCostBudget int64
	// MaxQueue bounds how many interactive requests may wait for
	// admission before further ones are shed (0 = a small default).
	// Background-priority work never queues.
	MaxQueue int
	// MaxInflightPerDataset bounds concurrently admitted Stage-3
	// passes per dataset (0 = unlimited). A dataset at its quota sheds
	// immediately with the same 429 + Retry-After path, so one hot
	// dataset cannot monopolize the global budget or the queue.
	MaxInflightPerDataset int

	// DeltaPolicy is read by nothing: Ingest always patches (see
	// DeltaPolicy).
	DeltaPolicy DeltaPolicy
}

// Service ties the dataset registry, the result cache, the Stage-5
// measure cache, and request deduplication together. All methods are
// safe for concurrent use.
type Service struct {
	reg    *Registry
	cache  *Cache
	sf     singleflight
	mcache *MeasureCache
	msf    singleflight
	// measureComputes counts actual measure evaluations (cache misses
	// that ran Compute) — the instrumentation the cache tests assert
	// against, surfaced in MeasureCacheStats.
	measureComputes atomic.Int64
	// projectionComputes counts per-s projections that actually ran
	// Stages 1-4 (cache hits and singleflight joins excluded).
	projectionComputes atomic.Int64
	// projectionMaterializations counts patched projections whose
	// deferred rows were built (delta.Patcher.OnMaterialize).
	projectionMaterializations atomic.Int64
	// datasetBuilds counts pending dataset versions whose CSR was built
	// (hg.Version.Flat).
	datasetBuilds atomic.Int64
	// sfDedups / msfDedups count requests served by joining another
	// caller's in-flight computation (projection / measure flights).
	sfDedups  atomic.Int64
	msfDedups atomic.Int64

	adm     *admission
	metrics metrics

	// Streaming ingest state: the per-dataset change feed and the
	// lifetime ingest counters the /metrics exposition reports.
	feed                  *changeFeed
	ingestsApplied        atomic.Int64
	ingestMigrated        atomic.Int64
	ingestPatched         atomic.Int64
	ingestDropped         atomic.Int64
	ingestMeasureMigrated atomic.Int64
	ingestMeasureDropped  atomic.Int64

	// spill is the shared disk tier under both LRUs; nil until
	// EnableSpill. Both caches address it by their (disjoint) key
	// namespaces.
	spill *spillStore
}

// New returns an empty service.
func New(cfg Config) *Service {
	s := &Service{
		reg:    NewRegistry(),
		cache:  NewCache(cfg.CacheEntries),
		mcache: NewMeasureCache(cfg.MeasureCacheEntries),
		adm:    newAdmission(cfg.ShedCostBudget, cfg.MaxInflight, cfg.MaxQueue, cfg.MaxInflightPerDataset),
		feed:   newChangeFeed(),
	}
	s.reg.onBuild = func() { s.datasetBuilds.Add(1) }
	return s
}

// EnableSpill attaches a disk tier under both caches: entries evicted
// from memory serialize into dir (bounded to budgetBytes; <= 0 =
// unbounded), and memory misses probe dir before recomputing. The
// directory is scanned on attach, so entries spilled by a previous
// process — or flushed by SaveState — serve as disk hits immediately.
// Must be called before the service takes traffic.
func (s *Service) EnableSpill(dir string, budgetBytes int64) error {
	store, err := newSpillStore(dir, budgetBytes)
	if err != nil {
		return err
	}
	s.spill = store
	s.cache.setSpill(store, encodeProjection, decodeProjection)
	s.mcache.setSpill(store, encodeMeasureEntry, decodeMeasureEntry)
	return nil
}

// SpillStats snapshots the disk tier; zero-valued when spill is not
// enabled.
func (s *Service) SpillStats() SpillStats {
	if s.spill == nil {
		return SpillStats{}
	}
	return s.spill.Stats()
}

// AdmissionStats snapshots the admission controller: configured limits,
// live occupancy, and lifetime admitted/shed/queued counters.
func (s *Service) AdmissionStats() AdmissionStats { return s.adm.Stats() }

// Add registers h under name, replacing any previous dataset with that
// name (previously cached results for the old version become
// unreachable and age out of the LRU).
func (s *Service) Add(name string, h *hg.Hypergraph) { s.reg.Add(name, h) }

// Load reads a hypergraph from path (format by extension, as
// hgio.LoadFile) and registers it under name.
func (s *Service) Load(name, path string) error {
	_, err := s.reg.Load(name, path)
	return err
}

// Remove drops the named dataset, reporting whether it existed.
func (s *Service) Remove(name string) bool { return s.reg.Remove(name) }

// Datasets lists the registered datasets sorted by name.
func (s *Service) Datasets() []DatasetInfo { return s.reg.List() }

// Stats returns Table IV-style statistics for the named dataset's
// current version (carried across deltas; the containment sample taken
// on first read).
func (s *Service) Stats(name string) (hg.Stats, error) {
	return s.reg.Stats(name)
}

// Hypergraph returns the named hypergraph (shared, immutable), building
// its current version's CSR if a delta left it pending.
func (s *Service) Hypergraph(name string) (*hg.Hypergraph, error) {
	v, _, err := s.reg.Get(name)
	if err != nil {
		return nil, err
	}
	return v.Flat(), nil
}

// resolveAt resolves cfg's planner-driven auto knobs (hg.RelabelAuto,
// core.ToplexAuto) against a pinned dataset snapshot and attaches the
// version's cached statistics, so every cache key derived afterwards
// names the concrete configuration the pipeline will actually run — a
// planner-chosen configuration shares cache entries with the pinned
// configuration it resolves to. When the snapshot is no longer the
// registry's current version (a concurrent replacement), the stats are
// recomputed from the snapshot's built rows.
func (s *Service) resolveAt(h *hg.Version, version uint64, name string, dual bool, cfg core.PipelineConfig) core.PipelineConfig {
	var work *hg.Hypergraph
	if d, ok := s.reg.at(name, version); ok {
		st := d.statsFor(dual)
		if cfg.Toplex == core.ToplexAuto {
			st = d.sampled(dual)
		}
		cfg.Stats = &st
	} else {
		work = orient(h, dual).Flat()
	}
	return core.ResolveConfig(work, cfg)
}

// orient is the version whose hyperedges an orientation's projection
// nodes are: v for the line orientation, its dual for the clique one.
func orient(v *hg.Version, dual bool) *hg.Version {
	if dual {
		return v.Dual()
	}
	return v
}

// CacheStats snapshots the result cache counters.
func (s *Service) CacheStats() CacheStats { return s.cache.Stats() }

// projection is one s of a projectBatchAt answer.
type projection struct {
	res    *core.PipelineResult
	cached bool      // Stages 1-4 skipped: a cache hit or a shared flight
	frag   *fragment // set only when this caller's own cache probe hit
}

// projectBatchAt serves the projections of distinct (validated,
// deduplicated, ascending s values) against the dataset snapshot Query
// pinned (hypergraph + version) under the configuration Query resolved:
// every cache key it derives refers to that version and those concrete
// knobs, so one response never mixes versions even if the dataset is
// concurrently replaced. Only a pass that computes builds a pending
// version's CSR (once, for every flight that needs it).
func (s *Service) projectBatchAt(ctx context.Context, h *hg.Version, version uint64, name string, dual bool, distinct []int, cfg core.PipelineConfig, pri Priority) (map[int]projection, error) {
	// The version makes replaced datasets miss; the output key folds in
	// every output-relevant option, so requests differing only in
	// execution knobs share an entry.
	key := func(sVal int) projKey { return projKey{name, version, cfg.OutputKey(dual, sVal)} }
	out := make(map[int]projection, len(distinct))
	missing := make([]int, 0, len(distinct))
	for _, sVal := range distinct {
		if e, ok := s.cache.Get(key(sVal)); ok {
			out[sVal] = projection{res: e.res, cached: true, frag: &e.frag}
		} else {
			missing = append(missing, sVal)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	// One planner-driven pass fills every missing s. Singleflight is
	// keyed on the batch shape, so concurrent identical batches share
	// one computation; each per-s entry still lands in the cache for
	// single-s requests to hit. The flight runs under its own detached
	// context (fctx): this caller cancelling only aborts the pipeline
	// if no other caller still waits on the same flight.
	bk := fmt.Sprintf("batch/%v%s", missing, key(0))
	v, err, shared := s.sf.Do(ctx, bk, func(fctx context.Context) (any, error) {
		// Re-probe under the flight: an overlapping batch may have
		// cached some of these s values between our misses and this
		// call. Hits are recorded so the cached flags stay truthful.
		got := make(map[int]projection, len(missing))
		compute := make([]int, 0, len(missing))
		for _, sVal := range missing {
			if e, ok := s.cache.Get(key(sVal)); ok {
				got[sVal] = projection{res: e.res, cached: true}
			} else {
				compute = append(compute, sVal)
			}
		}
		if len(compute) > 0 {
			// Admission gates the expensive part only: the flight holds
			// a semaphore slot weighted by the planner-estimated cost of
			// this pass for exactly as long as Stages 1-4 run. Saturation
			// sheds (or, for interactive work, queues) here — after the
			// cache re-probe, so hits are never shed. The flight admits
			// under the priority of the caller that started it; joiners
			// share its fate.
			release, aerr := s.adm.Acquire(fctx, pri, name, estimateCost(cfg, compute))
			if aerr != nil {
				return nil, aerr
			}
			t0 := time.Now()
			computed, err := func() (map[int]*core.PipelineResult, error) {
				defer release()
				return core.RunBatch(fctx, orient(h, dual).Flat(), compute, cfg)
			}()
			wall := time.Since(t0)
			if err != nil {
				return nil, err
			}
			s.projectionComputes.Add(int64(len(computed)))
			if d, ok := s.reg.at(name, version); ok && !dual {
				d.passes.Add(1)
			}
			if res := computed[compute[0]]; res != nil {
				s.metrics.observePass(res.Timings, wall)
			}
			for sVal, res := range computed {
				s.cache.Put(key(sVal), &projEntry{res: res})
				got[sVal] = projection{res: res}
			}
		}
		return got, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		s.sfDedups.Add(1)
	}
	for sVal, p := range v.(map[int]projection) {
		p.cached = p.cached || shared
		out[sVal] = p
	}
	return out, nil
}
