package serve

import (
	"context"
	"fmt"
	"sync"

	"hyperline/internal/delta"
)

// This file is the serving half of streaming ingest: applying a delta
// to a registered dataset composes a pending version and bumps to it
// (statistics and pass count carried forward, see Registry.ApplyDelta)
// and then walks both result caches
// once, deciding per key — via the delta.Patcher — whether the entry
// provably survived the delta (migrate: re-key to the new version),
// can be patched cheaper than recomputed (patch: a deferred rewrite of
// the cached rows, built only when something reads them), or must go
// (drop). Keys the walk never visits are
// merely unreachable, not wrong: every cache key embeds the version.

// DeltaPolicy and DeltaPolicyPatch name the one cache-maintenance
// policy Ingest has: migrate and patch where provably sound, drop what
// the delta's frontier touches. They remain only so that callers which
// spell the policy out still compile; New reads neither.
type DeltaPolicy string

// DeltaPolicyPatch is the only DeltaPolicy (see DeltaPolicy).
const DeltaPolicyPatch DeltaPolicy = "patch"

// IngestResult summarizes one applied delta: the version transition,
// the delta's shape, and what happened to the dataset's cached
// artifacts.
type IngestResult struct {
	Dataset    string `json:"dataset"`
	OldVersion uint64 `json:"old_version"`
	Version    uint64 `json:"version"`
	Inserts    int    `json:"inserts"`
	Deletes    int    `json:"deletes"`
	// AffectedSLine / AffectedSClique bound the frontier per
	// orientation: projections at s above the bound are unchanged.
	AffectedSLine   int `json:"affected_s_line"`
	AffectedSClique int `json:"affected_s_clique"`
	// Projection-cache outcomes.
	Migrated int `json:"migrated"`
	Patched  int `json:"patched"`
	Dropped  int `json:"dropped"`
	// Measure-cache outcomes (entries migrate with their projection or
	// drop; they are never patched).
	MeasuresMigrated int `json:"measures_migrated"`
	MeasuresDropped  int `json:"measures_dropped"`
}

// Ingest applies one delta to the named dataset: the delta is composed
// onto the current version as a pending one (delta.Compose: no copy of
// the dataset, built only when something needs flat rows), installed
// as the next version with its statistics and pass count carried
// forward, and the caches are walked once.
// The delta is validated against the dataset's current version;
// baseVersion != 0 additionally pins the version the client built the
// delta against (hyperedge IDs are only meaningful relative to a
// version). Concurrent writers lose the CAS and get ErrVersionConflict.
// A cancelled ctx stops the cache walk early — the version bump itself
// is already durable, and unvisited old-version keys are unreachable,
// so early exit only costs hit rate.
func (s *Service) Ingest(ctx context.Context, name string, d *delta.Delta, baseVersion uint64) (*IngestResult, error) {
	cur, err := s.reg.current(name)
	if err != nil {
		return nil, err
	}
	oldV := cur.version
	if baseVersion != 0 && baseVersion != oldV {
		return nil, fmt.Errorf("serve: %w: delta based on version %d of %q, current is %d",
			ErrVersionConflict, baseVersion, name, oldV)
	}
	next, err := delta.Compose(cur.v, d)
	if err != nil {
		return nil, err
	}
	newV, err := s.reg.ApplyDelta(name, oldV, next, delta.CarryStats(cur.stats, cur.v, next, d))
	if err != nil {
		return nil, err
	}
	s.ingestsApplied.Add(1)

	p := delta.PatcherFor(cur.v, next, d)
	p.OnMaterialize = func() { s.projectionMaterializations.Add(1) }
	res := &IngestResult{
		Dataset:         name,
		OldVersion:      oldV,
		Version:         newV,
		Inserts:         len(d.Inserts),
		Deletes:         len(d.Deletes),
		AffectedSLine:   p.AffectedS(false),
		AffectedSClique: p.AffectedS(true),
	}

	nd, _ := s.reg.at(name, newV) // nil after a concurrent replacement: treat everything as drop
	patching := nd != nil
	for _, k := range s.cache.Keys() {
		if k.dataset != name || k.version != oldV {
			continue
		}
		if err := ctx.Err(); err != nil {
			break
		}
		old, ok := s.cache.Remove(k)
		if !ok {
			continue // evicted between the snapshot and the walk
		}
		action := delta.ActionDrop
		if patching {
			projected := nd.passesOf(k.out.Dual).Load() >= projectedPasses
			action = p.Plan(k.out, old.res.Graph.NumEdges(), nd.statsFor(k.out.Dual).WedgePairs, projected)
		}
		switch action {
		case delta.ActionMigrate:
			s.cache.Put(k.at(newV), old) // fragment too: nothing in it depends on the version
			res.Migrated++
			s.ingestMigrated.Add(1)
		case delta.ActionPatch:
			patched, perr := p.Patch(old.res, k.out)
			if perr != nil {
				res.Dropped++
				s.ingestDropped.Add(1)
				continue
			}
			s.cache.Put(k.at(newV), &projEntry{res: patched})
			res.Patched++
			s.ingestPatched.Add(1)
		default:
			res.Dropped++
			s.ingestDropped.Add(1)
		}
	}

	for _, k := range s.mcache.Keys() {
		if k.proj.dataset != name || k.proj.version != oldV {
			continue
		}
		migrate := patching && ctx.Err() == nil && p.Migratable(k.proj.out)
		val, ok := s.mcache.Remove(k)
		if !ok {
			continue
		}
		if migrate {
			k.proj = k.proj.at(newV)
			s.mcache.Put(k, val)
			res.MeasuresMigrated++
			s.ingestMeasureMigrated.Add(1)
		} else {
			res.MeasuresDropped++
			s.ingestMeasureDropped.Add(1)
		}
	}

	s.feed.publish(name, ChangeEvent{
		Version:          newV,
		Inserts:          res.Inserts,
		Deletes:          res.Deletes,
		Migrated:         res.Migrated,
		Patched:          res.Patched,
		Dropped:          res.Dropped,
		MeasuresMigrated: res.MeasuresMigrated,
		MeasuresDropped:  res.MeasuresDropped,
	})
	return res, nil
}

// projectedPasses is how many Stage-3 passes one orientation of a
// dataset lineage must have run before ingest patches against the
// permissive threshold (delta.Patcher.Plan's projected).
const projectedPasses = 3

// ChangeEvent is one entry of a dataset's change feed: the version a
// delta produced, its shape, and the cache outcomes — what a dashboard
// needs to watch an evolving hypergraph without polling projections.
type ChangeEvent struct {
	Version          uint64 `json:"version"`
	Inserts          int    `json:"inserts"`
	Deletes          int    `json:"deletes"`
	Migrated         int    `json:"migrated"`
	Patched          int    `json:"patched"`
	Dropped          int    `json:"dropped"`
	MeasuresMigrated int    `json:"measures_migrated"`
	MeasuresDropped  int    `json:"measures_dropped"`
}

// feedCapacity bounds the retained events per dataset; a consumer more
// than feedCapacity deltas behind re-syncs from the current version.
const feedCapacity = 64

// changeFeed is the per-dataset event ring behind the long-poll
// /v2/datasets/{name}/changes endpoint.
type changeFeed struct {
	mu     sync.Mutex
	byName map[string]*datasetFeed
}

type datasetFeed struct {
	events []ChangeEvent // ascending version, bounded to feedCapacity
	notify chan struct{} // closed on publish, then replaced
}

func newChangeFeed() *changeFeed {
	return &changeFeed{byName: make(map[string]*datasetFeed)}
}

// lockedGet returns name's feed, creating it; f.mu must be held.
func (f *changeFeed) lockedGet(name string) *datasetFeed {
	df, ok := f.byName[name]
	if !ok {
		df = &datasetFeed{notify: make(chan struct{})}
		f.byName[name] = df
	}
	return df
}

// publish appends one event and wakes every long-poll waiter.
func (f *changeFeed) publish(name string, ev ChangeEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	df := f.lockedGet(name)
	df.events = append(df.events, ev)
	if len(df.events) > feedCapacity {
		df.events = df.events[len(df.events)-feedCapacity:]
	}
	close(df.notify)
	df.notify = make(chan struct{})
}

// after returns the retained events with Version > since, plus the
// channel that will be closed on the next publish.
func (f *changeFeed) after(name string, since uint64) ([]ChangeEvent, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	df := f.lockedGet(name)
	var out []ChangeEvent
	for _, ev := range df.events {
		if ev.Version > since {
			out = append(out, ev)
		}
	}
	return out, df.notify
}

// Changes long-polls the named dataset's change feed: it returns every
// retained event with version > since, blocking until one exists or ctx
// expires (an expired ctx returns an empty slice, not an error — the
// long-poll timeout contract). When the dataset's current version is
// already past since but the events were produced outside the feed (a
// full re-upload, a restart, a trimmed ring), it returns immediately
// with no events: the caller sees the version jump and re-syncs.
func (s *Service) Changes(ctx context.Context, name string, since uint64) ([]ChangeEvent, uint64, error) {
	for {
		_, version, err := s.reg.Get(name)
		if err != nil {
			return nil, 0, err
		}
		events, notify := s.feed.after(name, since)
		if len(events) > 0 || version > since {
			// Either real events, or a version jump the feed cannot
			// explain (re-upload / trimmed ring): both end the poll.
			return events, version, nil
		}
		select {
		case <-notify:
		case <-ctx.Done():
			return nil, version, nil
		}
	}
}
