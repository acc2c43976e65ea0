package serve

import (
	"context"

	"hyperline/internal/core"
	"hyperline/internal/measure"
	"hyperline/internal/par"
)

// QueryRequest is the serve-level form of the unified query: one
// dataset, one orientation, an s-list, an optional Stage-5 measure, and
// a worker budget. It is the single request shape behind POST /v2/query
// and Session.Execute. The service answers one output class — exact
// weights, relabel N, toplex off, squeezed — so a request names no
// preprocessing knob, and its cache keys depend only on dataset,
// version, orientation and s.
type QueryRequest struct {
	// Dataset names a registered dataset.
	Dataset string
	// Dual selects the s-clique orientation (the dual hypergraph).
	Dual bool
	// S lists the requested overlap thresholds (validated against
	// core.ValidateSValues; duplicates collapse, results are ordered by
	// ascending distinct s).
	S []int
	// Workers bounds the query's parallelism (0 = GOMAXPROCS). It
	// changes no output byte, so requests differing only in it share
	// cache entries.
	Workers int
	// Measure optionally names a registered Stage-5 measure to
	// evaluate on every projection of the sweep.
	Measure string
	// Params are the measure's raw parameters (validated against its
	// schema before any pipeline work runs).
	Params map[string]string
	// Priority classifies the query's Stage-3 work for admission
	// control. The zero value is PriorityInteractive (may wait in the
	// bounded admission queue); PriorityBackground marks deferrable
	// work that is shed instead of queued under saturation.
	Priority Priority
}

// QueryEntry is one per-s outcome of a Query.
type QueryEntry struct {
	// S is the overlap threshold this entry answers.
	S int
	// Res is the materialized projection. It is nil when the entry was
	// served purely from the measure cache (the projection was never
	// consulted); on per-s measure failure it remains set, so callers
	// can still inspect the projection the measure failed on. Err, not
	// Res, is the success test.
	Res *core.PipelineResult
	// Measure is the measure evaluation, when the request named one.
	Measure *MeasureResult
	// Cached reports whether the served artifact — the measure value
	// for measure queries, the projection otherwise — came from a
	// cache or a concurrent identical request.
	Cached bool
	// Err is this entry's failure (e.g. a measure parameter that is
	// unsatisfiable at this s). Per-s errors do not fail the whole
	// query; request-level failures (unknown dataset or measure, bad
	// parameters, cancellation) are returned by Query itself.
	Err error
	// frag is the response fragment of the cache entry this query's own
	// probe hit; nil for every other entry.
	frag *fragment
}

// QueryResult is the outcome of one Query: per-s entries ordered by
// ascending distinct s, plus the executed plan.
type QueryResult struct {
	Entries []QueryEntry
	// Plan records the Stage-3 strategy decision taken (or originally
	// taken, for cached projections). It is zero when every entry was
	// served from the measure cache and no projection was touched.
	Plan core.PlanInfo
	// Version is the dataset version the whole query was pinned to —
	// under streaming ingest, the consistency token a client needs to
	// compare answers across deltas.
	Version uint64
}

// Query executes one unified request, and is the one place validation,
// cache probes, singleflight, admission and metrics are applied:
// validation first (a typo fails in microseconds, before any pipeline
// work), then one batched planner-driven pass for the
// uncached projections, then — when a measure is named — one cached,
// deduplicated measure evaluation per s. Cancellation is cooperative
// end to end: a cancelled ctx aborts the pipeline within a bounded
// latency and Query returns ctx.Err(), unless concurrent identical
// requests still wait on the shared computation (singleflight keeps the
// flight alive for them and the result is still cached).
func (s *Service) Query(ctx context.Context, q QueryRequest) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := core.ValidateSValues(q.S); err != nil {
		return nil, err
	}
	var m measure.Measure
	var p measure.Params
	if q.Measure != "" {
		var err error
		if m, err = measure.Get(q.Measure); err != nil {
			return nil, err
		}
		if p, err = measure.Canonicalize(m, q.Params); err != nil {
			return nil, err
		}
	}
	// The dataset snapshot (hypergraph + version) is read once and
	// pinned through the whole query, so a concurrent replacement can
	// never mix two versions within one response. A pending version is
	// built only if a projection must be computed.
	h, version, err := s.reg.Get(q.Dataset)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	distinct := core.DistinctS(q.S)
	cfg := s.configAt(version, q.Dataset, q.Dual, q.Workers)

	out := &QueryResult{Entries: make([]QueryEntry, len(distinct)), Version: version}
	index := make(map[int]int, len(distinct))
	for i, sVal := range distinct {
		index[sVal] = i
		out.Entries[i] = QueryEntry{S: sVal}
	}

	if m == nil {
		projs, err := s.projectBatchAt(ctx, h, version, q.Dataset, q.Dual, distinct, cfg, q.Priority)
		if err != nil {
			return nil, err
		}
		for i, sVal := range distinct {
			p := projs[sVal]
			out.Entries[i].Res, out.Entries[i].Cached, out.Entries[i].frag = p.res, p.cached, p.frag
		}
		out.Plan = projs[distinct[0]].res.Plan
		return out, nil
	}

	// Measure path: probe the measure cache per s, then fetch every
	// projection the misses need as one batch, then evaluate.
	params := p.CanonicalString() // once per query, not per s
	mkey := func(sVal int) measureKey {
		return measureKey{projKey{q.Dataset, version, cfg.OutputKey(q.Dual, sVal)}, m.Name(), params}
	}
	missing := make([]int, 0, len(distinct))
	for _, sVal := range distinct {
		if e, ok := s.mcache.Get(mkey(sVal)); ok {
			i := index[sVal]
			out.Entries[i].Measure = &MeasureResult{S: sVal, MeasureEntry: e, Cached: true, ProjectionCached: true}
			out.Entries[i].Cached = true
			out.Entries[i].frag = &e.frag
		} else {
			missing = append(missing, sVal)
		}
	}
	if len(missing) > 0 {
		projs, err := s.projectBatchAt(ctx, h, version, q.Dataset, q.Dual, missing, cfg, q.Priority)
		if err != nil {
			return nil, err
		}
		// One evaluation per missing s, scheduled across the sweep;
		// each writes only its own entry.
		budget := par.Options{Workers: q.Workers}
		weight := func(k int) int { return measure.Weight(projs[missing[k]].res) }
		par.EachS(len(missing), budget, weight, func(k int, inner par.Options) {
			sVal := missing[k]
			e := &out.Entries[index[sVal]]
			e.Res = projs[sVal].res
			e.Measure, e.Err = s.measureOne(ctx, mkey(sVal), m, p, inner, e.Res, projs[sVal].cached)
			if e.Err == nil {
				e.Cached = e.Measure.Cached
			}
		})
		// Cancellation fails the query; any other error is a per-s
		// outcome (the other s values still answer).
		if err := ctx.Err(); err != nil {
			for _, e := range out.Entries {
				if e.Err != nil {
					return nil, err
				}
			}
		}
	}
	for _, e := range out.Entries {
		if e.Res != nil {
			out.Plan = e.Res.Plan
			break
		}
	}
	return out, nil
}
