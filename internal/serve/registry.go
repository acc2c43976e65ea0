package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

// ErrUnknownDataset marks lookups of unregistered dataset names; the
// HTTP layer maps it to 404 (vs 400 for malformed requests) via
// errors.Is.
var ErrUnknownDataset = errors.New("unknown dataset")

// ErrVersionConflict marks a delta application whose base version is no
// longer the dataset's current version — a concurrent upload or ingest
// won the race. The HTTP layer maps it to 409; the client re-reads and
// retries against the new version.
var ErrVersionConflict = errors.New("version conflict")

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name    string
	Version uint64
	Stats   hg.Stats
}

// dataset pairs an immutable hypergraph version with a monotonically
// increasing version number. Replacing a dataset under the same name
// bumps the number, which flows into every cache key derived from it —
// stale results are never served, they simply age out of the LRU. A
// delta's version is pending (hg.Version): its CSR is built only when
// something needs flat rows. Stats are computed once at registration
// (they are immutable per version, and recomputing them scans the whole
// hypergraph) and carried forward across deltas (delta.CarryStats); the
// dual orientation's are derived from them (hg.Stats.Dual), so neither
// side builds a pending version. The containment probe the planner's
// toplex knob reads is not carried: each version takes it, per
// orientation, the first time something reads it (sampled).
//
// passes counts the line-orientation Stage-3 passes the service has run
// on this dataset's lineage: the ingest walk's patch-vs-drop threshold
// reads it (see Service.Ingest), and only line keys are patched. A
// delta's next version shares the counter; a fresh Add or a restore
// starts a new one at 0.
type dataset struct {
	v       *hg.Version
	version uint64
	stats   hg.Stats
	passes  *atomic.Int64
}

// statsFor returns the statistics of the orientation a query actually
// projects.
func (d *dataset) statsFor(dual bool) hg.Stats {
	if !dual {
		return d.stats
	}
	return d.stats.Dual(d.stats.Name + "/dual")
}

// Registry is a thread-safe name → hypergraph table. Hypergraphs are
// immutable once registered, so readers share them without copying.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*dataset
	nextVer uint64
	// onBuild is called once per pending version whose CSR is built.
	onBuild func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*dataset)}
}

// registered returns the dataset record of h, with its statistics.
func (r *Registry) registered(name string, h *hg.Hypergraph, version uint64) *dataset {
	stats := hg.ComputeStats(name, h)
	return &dataset{v: hg.NewVersion(h, r.onBuild), version: version, stats: stats, passes: new(atomic.Int64)}
}

// Add registers h under name, replacing any previous dataset with that
// name, and returns the assigned version.
func (r *Registry) Add(name string, h *hg.Hypergraph) uint64 {
	d := r.registered(name, h, 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextVer++
	d.version = r.nextVer
	r.byName[name] = d
	return r.nextVer
}

// ApplyDelta installs next, with its carried statistics, as the next
// version of name, but only while oldVersion is still the current
// version (compare-and-swap against concurrent writers; losers get
// ErrVersionConflict and must re-read).
//
// Unlike Add, the old version's pass counter is carried forward: a
// delta perturbs a bounded neighborhood of the hypergraph, so the
// lineage that has been projected before is still being read — whereas
// a full replacement is a new lineage and starts at 0.
func (r *Registry) ApplyDelta(name string, oldVersion uint64, next *hg.Version, stats hg.Stats) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byName[name]
	if !ok {
		return 0, fmt.Errorf("serve: %w %q", ErrUnknownDataset, name)
	}
	if d.version != oldVersion {
		return 0, fmt.Errorf("serve: %w: delta based on version %d of %q, current is %d",
			ErrVersionConflict, oldVersion, name, d.version)
	}
	r.nextVer++
	r.byName[name] = &dataset{
		v:       next,
		version: r.nextVer,
		stats:   stats,
		passes:  d.passes,
	}
	return r.nextVer, nil
}

// addRestored registers h under name with a pinned version — the
// snapshot-restore path, where reusing the pre-restart version is what
// keeps previously minted cache keys (and spilled entries) valid. The
// version counter advances past the pinned version so later Add calls
// never collide with it.
func (r *Registry) addRestored(name string, h *hg.Hypergraph, version uint64) {
	d := r.registered(name, h, version)
	r.mu.Lock()
	defer r.mu.Unlock()
	if version > r.nextVer {
		r.nextVer = version
	}
	r.byName[name] = d
}

// bumpNextVersion advances the version counter to at least v.
func (r *Registry) bumpNextVersion(v uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v > r.nextVer {
		r.nextVer = v
	}
}

// registrySnapshot is one (name, hypergraph, version) triple from
// snapshot.
type registrySnapshot struct {
	name    string
	v       *hg.Version
	version uint64
}

// snapshot returns the current registry contents and version counter.
func (r *Registry) snapshot() ([]registrySnapshot, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]registrySnapshot, 0, len(r.byName))
	for name, d := range r.byName {
		out = append(out, registrySnapshot{name: name, v: d.v, version: d.version})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, r.nextVer
}

// drain empties the registry and returns the removed datasets — the
// teardown path behind Service.Close.
func (r *Registry) drain() []*dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*dataset, 0, len(r.byName))
	for _, d := range r.byName {
		out = append(out, d)
	}
	r.byName = make(map[string]*dataset)
	return out
}

// Load reads a hypergraph from path and registers it under name. Binary
// files are mapped (hgio.MapFile) rather than parsed — registration is
// O(pages touched) and the dataset can exceed RAM; text formats load
// through the ordinary readers.
func (r *Registry) Load(name, path string) (uint64, error) {
	h, err := hgio.MapFile(path)
	if err != nil {
		return 0, err
	}
	return r.Add(name, h), nil
}

// Remove drops the named dataset, reporting whether it existed.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.byName[name]
	delete(r.byName, name)
	return ok
}

// Get returns the named hypergraph version and its version number.
func (r *Registry) Get(name string) (*hg.Version, uint64, error) {
	d, err := r.current(name)
	if err != nil {
		return nil, 0, err
	}
	return d.v, d.version, nil
}

// current returns the named dataset's current record.
func (r *Registry) current(name string) (*dataset, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("serve: %w %q", ErrUnknownDataset, name)
	}
	return d, nil
}

// at returns the named dataset only while version is still its current
// version. Callers holding a pinned snapshot (hypergraph + version) use
// it to reach the version's cached stats and pass counter; after
// a concurrent replacement it reports false and the caller falls back
// to computing what it needs from the snapshot itself.
func (r *Registry) at(name string, version uint64) (*dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byName[name]
	if !ok || d.version != version {
		return nil, false
	}
	return d, true
}

// Stats returns the statistics of the named dataset's current version.
func (r *Registry) Stats(name string) (hg.Stats, error) {
	d, err := r.current(name)
	if err != nil {
		return hg.Stats{}, err
	}
	return d.stats, nil
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// List returns all registered datasets sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	out := make([]DatasetInfo, 0, len(r.byName))
	for name, d := range r.byName {
		out = append(out, DatasetInfo{Name: name, Version: d.version, Stats: d.stats})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
