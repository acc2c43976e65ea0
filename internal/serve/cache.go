package serve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"hyperline/internal/core"
	"hyperline/internal/measure"
)

// CacheStats is a point-in-time snapshot of cache effectiveness.
// DiskHits/DiskMisses count what happened after a memory miss when a
// spill store is attached: a disk hit decoded a previously evicted (or
// snapshot-flushed) entry instead of recomputing.
type CacheStats struct {
	Entries    int   `json:"entries"`
	Capacity   int   `json:"capacity"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	DiskHits   int64 `json:"disk_hits,omitempty"`
	DiskMisses int64 `json:"disk_misses,omitempty"`
}

// projKey names one cached projection: a dataset version's output
// under one resolved configuration. Keys are compared as values; their
// text form (String) is only a spill address and a singleflight key.
type projKey struct {
	dataset string
	version uint64
	out     core.OutputKey
}

// String is "name@version/" followed by the output key's text. It is the
// spill address, so changing it makes spilled and warm-start entries
// miss (TestKeyEncoding pins it).
func (k projKey) String() string {
	return fmt.Sprintf("%s@%d/%s", k.dataset, k.version, k.out)
}

// at re-keys k to another version of its dataset.
func (k projKey) at(version uint64) projKey {
	k.version = version
	return k
}

// measureKey extends a projection key with the measure identity: a
// measure hit is only possible where the projection key would hit, and
// a version bump invalidates both layers at once.
type measureKey struct {
	proj    projKey
	measure string
	params  string // measure.Params.CanonicalString
}

// String is the projection key's text, then "/measure=", the measure's
// name with its revision if it has one, "?" and the canonical
// parameters. It is the spill address (TestKeyEncoding pins it).
func (k measureKey) String() string {
	name := k.measure
	if rev := measureRevisions[name]; rev != "" {
		name += "+" + rev
	}
	return fmt.Sprintf("%s/measure=%s?%s", k.proj, name, k.params)
}

// measureRevisions names the solver revision of a measure whose values
// changed under the same name, so that entries an earlier build spilled
// or snapshotted under the old text miss and are recomputed. A measure
// without an entry keeps the key text earlier builds wrote.
var measureRevisions = map[string]string{
	// λ₂ by Lanczos to a stated residual replaced the power iteration,
	// whose values it does not reproduce bit for bit.
	"connectivity": "lanczos",
	// PageRank by conjugate gradients to a stated error replaced the
	// power iteration likewise ("cg"), then one CG per connected
	// component replaced the one global CG, whose ranks it matches to
	// the error bound, not bit for bit.
	"pagerank": "cgcc",
}

// cacheKey is what an lru is keyed by: a comparable value whose text
// form addresses the spill store.
type cacheKey interface {
	comparable
	String() string
}

type cacheEntry[K cacheKey, V any] struct {
	key K
	val V
}

// lru is the thread-safe LRU core shared by the pipeline-result cache
// and the measure cache. Values are shared by reference — cached
// objects are immutable by convention, so all readers see the same
// object.
//
// With a spill store attached (setSpill), evicted entries serialize to
// disk and Get probes the disk tier after a memory miss, so the memory
// capacity bounds the hot set while the disk budget bounds the total
// retained set. All spill IO happens outside the lock.
type lru[K cacheKey, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[K]*list.Element

	hits      int64
	misses    int64
	evictions int64

	spill      *spillStore
	encode     func(V) ([]byte, error)
	decode     func([]byte) (V, error)
	diskHits   int64
	diskMisses int64
}

func newLRU[K cacheKey, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[K]*list.Element),
	}
}

// setSpill attaches the disk tier: evictions encode to store, and Get
// probes store after a memory miss. Must be called before the cache is
// shared across goroutines.
func (c *lru[K, V]) setSpill(store *spillStore, encode func(V) ([]byte, error), decode func([]byte) (V, error)) {
	c.spill = store
	c.encode = encode
	c.decode = decode
}

// Get returns the cached value for key, promoting it to most recently
// used. After a memory miss it probes the spill store (when attached):
// a disk hit decodes, repopulates the memory tier, and still reports
// ok=true — callers never observe the tiering, only the stats do.
func (c *lru[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		val := el.Value.(*cacheEntry[K, V]).val
		c.mu.Unlock()
		return val, true
	}
	c.misses++
	spill := c.spill
	c.mu.Unlock()

	var zero V
	if spill == nil {
		return zero, false
	}
	payload, ok := spill.Get(key.String())
	if !ok {
		c.addDiskResult(false)
		return zero, false
	}
	val, err := c.decode(payload)
	if err != nil {
		// A decodable-header but undecodable-payload file: count as a
		// miss and recompute; the next Put overwrites it.
		c.addDiskResult(false)
		return zero, false
	}
	c.addDiskResult(true)
	c.Put(key, val)
	return val, true
}

// addDiskResult records the outcome of one spill probe.
func (c *lru[K, V]) addDiskResult(hit bool) {
	c.mu.Lock()
	if hit {
		c.diskHits++
	} else {
		c.diskMisses++
	}
	c.mu.Unlock()
}

// Put inserts (or refreshes) a value, evicting the least recently used
// entries when over capacity. With a spill store attached, evicted
// entries serialize to disk (outside the lock) instead of vanishing.
func (c *lru[K, V]) Put(key K, val V) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry[K, V]).val = val
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry[K, V]{key: key, val: val})
	var spilled []*cacheEntry[K, V]
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		ent := oldest.Value.(*cacheEntry[K, V])
		delete(c.entries, ent.key)
		c.evictions++
		if c.spill != nil {
			spilled = append(spilled, ent)
		}
	}
	spill := c.spill
	c.mu.Unlock()
	for _, ent := range spilled {
		if data, err := c.encode(ent.val); err == nil {
			spill.Put(ent.key.String(), data)
		}
	}
}

// flushToSpill writes every in-memory entry through to the spill store
// (least recently used first, so recency survives the round trip) —
// the warm-start path: a snapshotting shutdown flushes, and the next
// boot's memory misses land as disk hits.
func (c *lru[K, V]) flushToSpill() {
	c.mu.Lock()
	spill := c.spill
	if spill == nil {
		c.mu.Unlock()
		return
	}
	ents := make([]*cacheEntry[K, V], 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		ents = append(ents, el.Value.(*cacheEntry[K, V]))
	}
	c.mu.Unlock()
	for _, ent := range ents {
		if data, err := c.encode(ent.val); err == nil {
			spill.Put(ent.key.String(), data)
		}
	}
}

// Keys snapshots the keys of every in-memory entry (most recently used
// first). The ingest walk iterates this snapshot — entries added or
// evicted concurrently are simply not visited, which is safe because
// old-version keys are unreachable by queries either way.
func (c *lru[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry[K, V]).key)
	}
	return out
}

// Remove drops one entry from the memory tier (and the spill tier, when
// attached), returning the removed value. Unlike eviction, a removed
// entry does not spill: removal means the value is invalid, not cold.
func (c *lru[K, V]) Remove(key K) (V, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	var val V
	if ok {
		c.order.Remove(el)
		delete(c.entries, key)
		val = el.Value.(*cacheEntry[K, V]).val
	}
	spill := c.spill
	c.mu.Unlock()
	if spill != nil {
		spill.Remove(key.String())
	}
	return val, ok
}

// Len returns the current number of cached values.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots hit/miss/eviction counters.
func (c *lru[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.order.Len(),
		Capacity:   c.capacity,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		DiskHits:   c.diskHits,
		DiskMisses: c.diskMisses,
	}
}

// DefaultCacheEntries is the pipeline-result LRU capacity when none is
// configured.
const DefaultCacheEntries = 128

// fragment memoises the /v2/query encoding of a cached entry's hit, and
// lives as long as the cache value holding it: eviction, removal and an
// ingest drop free it; an ingest migrate re-keys the value and keeps it.
type fragment struct{ p atomic.Pointer[[]byte] }

// get returns the memoised bytes, building them on first use; racing
// first uses may each build, but all return the one copy stored.
func (f *fragment) get(build func() []byte) []byte {
	if b := f.p.Load(); b != nil {
		return *b
	}
	b := build()
	if b != nil && !f.p.CompareAndSwap(nil, &b) {
		b = *f.p.Load()
	}
	return b
}

// projEntry is one pipeline-result cache value.
type projEntry struct {
	res  *core.PipelineResult
	frag fragment
}

// Cache is a thread-safe LRU of pipeline results keyed by projKey.
type Cache struct{ lru[projKey, *projEntry] }

// NewCache returns an LRU cache holding up to capacity results
// (DefaultCacheEntries if capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{*newLRU[projKey, *projEntry](capacity)}
}

// DefaultMeasureCacheEntries is the measure LRU capacity when none is
// configured. Measure values are much smaller than pipeline results
// (one vector or scalar vs a whole CSR graph), so the default is
// proportionally larger.
const DefaultMeasureCacheEntries = 1024

// MeasureEntry is one cached measure evaluation: the value plus the
// projection shape needed to serve a response (node→hyperedge mapping,
// counts) without re-fetching — or recomputing — the projection. The
// entry is self-contained so a measure hit stays O(1) even after the
// underlying projection aged out of the pipeline LRU.
type MeasureEntry struct {
	Value *measure.Value
	Nodes int
	Edges int
	// HyperedgeIDs is shared with the projection that produced the
	// value (immutable by convention).
	HyperedgeIDs []uint32
	frag         fragment // not spilled: a disk hit rebuilds it on its next hit
}

// NewMeasureEntry builds the self-contained cache entry for one
// measure evaluation on a projection. The node→hyperedge mapping only
// labels per-node vectors; scalar- and group-shaped values (diameter,
// components, connectivity) neither serialize it nor should pin it in
// the LRU after the projection evicts, so it is attached only when the
// value is per-node. Both the serving path and the sessionless
// hyperline.Execute build entries through this one rule.
func NewMeasureEntry(res *core.PipelineResult, val *measure.Value) *MeasureEntry {
	e := &MeasureEntry{
		Value: val,
		Nodes: res.Graph.NumNodes(),
		Edges: res.Graph.NumEdges(),
	}
	if val.Scores != nil || val.Ints != nil {
		e.HyperedgeIDs = res.IDs()
	}
	return e
}

// MeasureCache is a thread-safe LRU of measure entries keyed by
// measureKey.
type MeasureCache struct{ lru[measureKey, *MeasureEntry] }

// NewMeasureCache returns an LRU cache holding up to capacity measure
// entries (DefaultMeasureCacheEntries if capacity <= 0).
func NewMeasureCache(capacity int) *MeasureCache {
	if capacity <= 0 {
		capacity = DefaultMeasureCacheEntries
	}
	return &MeasureCache{*newLRU[measureKey, *MeasureEntry](capacity)}
}
