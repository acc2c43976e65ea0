package delta

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// Patcher incrementally maintains cached s-line projections across one
// delta. It is built once per applied delta (base → newH) and consulted
// once per cached projection key; the expensive per-orientation state —
// the Algorithm-2 recount of inserted hyperedges, the affected
// vertex-pair table of the clique orientation, and the Stage 1
// preprocessing of the new hypergraph — is computed lazily and shared
// across every key that needs it.
//
// The locality argument: a delta inserts and deletes whole hyperedges,
// so in the line orientation the overlap |e ∩ f| of two surviving
// hyperedges never changes — only pairs involving a deleted ID
// disappear and pairs involving an inserted ID appear, and the latter
// live entirely inside the inserted edges' 2-hop frontier. In the
// clique orientation adj(u, v) changes exactly for vertex pairs that
// co-occur in some inserted or deleted hyperedge's vertex set. Every
// other pair of either projection is bit-for-bit untouched.
type Patcher struct {
	base *hg.Hypergraph
	newH *hg.Hypergraph
	d    *Delta

	deleted map[uint32]bool

	// affectedS[orient] bounds the largest s any pair of that
	// orientation changes at: a projection at s above the bound is
	// identical before and after the delta. Both bounds are O(delta)
	// to compute — no counting pass.
	lineAffectedS   int
	cliqueAffectedS int

	// Lazily computed line-orientation pairs involving inserted
	// hyperedges: original-ID space, U < V, exact overlap weights.
	lineOnce  sync.Once
	linePairs []core.Edge

	// Lazily computed clique-orientation updates: affected vertex pair →
	// new adj count (0 = pair gone at every s). cliqueOK reports the
	// enumeration stayed within budget.
	cliqueOnce  sync.Once
	cliquePairs map[uint64]uint32
	cliqueOK    bool

	// prepared caches Stage-1 preprocessing of the new hypergraph per
	// (orientation, relabel) — shared by every key patched under it.
	mu       sync.Mutex
	prepared map[preparedKey]*core.Prepared
}

type preparedKey struct {
	dual    bool
	relabel hg.RelabelOrder
}

// cliquePairBudget caps how many affected vertex pairs the clique
// enumeration materializes: Σ |e|·(|e|−1)/2 over the delta's edges.
// Past it the delta is treated as global for the clique orientation
// (no migration, no patch) — a delta touching million-vertex hyperedges
// is a re-upload in disguise.
const cliquePairBudget = 1 << 22

// Patch-vs-recompute thresholds: patch when its estimated work is below
// this fraction of a full recompute (stats.WedgePairs). With a
// calibrated cost model vouching for the recompute estimate the planner
// tolerates patches up to half a recompute; without calibration it only
// patches clear wins.
const (
	patchFractionCalibrated   = 0.5
	patchFractionUncalibrated = 0.25
)

// NewPatcher builds the patcher for one applied delta. d must be the
// normalized delta that produced newH = Apply(base, d).
func NewPatcher(base, newH *hg.Hypergraph, d *Delta) *Patcher {
	p := &Patcher{
		base:     base,
		newH:     newH,
		d:        d,
		deleted:  make(map[uint32]bool, len(d.Deletes)),
		prepared: make(map[preparedKey]*core.Prepared),
	}
	for _, e := range d.Deletes {
		p.deleted[e] = true
	}
	// Line bound: a pair involving a deleted hyperedge x had weight
	// |x ∩ f| ≤ |x|; a pair involving an inserted g has weight ≤ |g|.
	for _, e := range d.Deletes {
		if sz := base.EdgeSize(e); sz > p.lineAffectedS {
			p.lineAffectedS = sz
		}
	}
	for _, vs := range d.Inserts {
		if len(vs) > p.lineAffectedS {
			p.lineAffectedS = len(vs)
		}
	}
	// Clique bound: an affected pair {u, v} lies inside some delta
	// edge, and both its old and new adj counts are bounded by the
	// member vertices' degrees on the respective side.
	bump := func(v uint32) {
		if int(v) < base.NumVertices() {
			if deg := base.VertexDegree(v); deg > p.cliqueAffectedS {
				p.cliqueAffectedS = deg
			}
		}
		if int(v) < newH.NumVertices() {
			if deg := newH.VertexDegree(v); deg > p.cliqueAffectedS {
				p.cliqueAffectedS = deg
			}
		}
	}
	for _, e := range d.Deletes {
		for _, v := range base.EdgeVertices(e) {
			bump(v)
		}
	}
	for _, vs := range d.Inserts {
		for _, v := range vs {
			bump(v)
		}
	}
	return p
}

// AffectedS returns the orientation's frontier bound: projections at
// s > AffectedS are identical before and after the delta.
func (p *Patcher) AffectedS(dual bool) int {
	if dual {
		return p.cliqueAffectedS
	}
	return p.lineAffectedS
}

// Action is the Patcher's verdict for one cached projection key.
type Action int

const (
	// ActionDrop invalidates the key: the next query recomputes.
	ActionDrop Action = iota
	// ActionMigrate re-keys the cached result to the new version as-is:
	// the projection provably did not change.
	ActionMigrate
	// ActionPatch rewrites the cached edge list incrementally and
	// caches the patched result under the new version.
	ActionPatch
)

// String names the action for logs and counters.
func (a Action) String() string {
	switch a {
	case ActionMigrate:
		return "migrate"
	case ActionPatch:
		return "patch"
	default:
		return "drop"
	}
}

// KeyAttrs are the output-relevant attributes of one cached projection
// key, as parsed from its fingerprint by the serving layer.
type KeyAttrs struct {
	Dual bool
	S    int
	// Exact reports the fingerprint's "exact" weight class (every
	// strategy but short-circuiting Algorithm 1).
	Exact   bool
	Relabel hg.RelabelOrder
	Toplex  bool
	Squeeze bool
}

// Plan decides what to do with one cached projection: oldEdges is the
// cached graph's edge count, wedgePairs the new version's recompute
// cost proxy (hg.Stats.WedgePairs of the orientation the key projects),
// calibrated whether the dataset's cost model has a calibrated cell
// vouching for that proxy.
//
// Migration requires s above the frontier bound plus ID-order
// stability: Stage 1's stable relabel sort keeps surviving hyperedges
// in the same relative order for any order in the line orientation
// (hyperedge sizes never change), but only for the unrelabeled order in
// the clique orientation (vertex degrees do change, which would shuffle
// a by-degree order even for untouched vertices). Toplex keys are never
// kept: one inserted superset or deleted container flips other edges'
// toplex status, perturbing the simplified hypergraph at any s.
// Unsqueezed keys bake the working ID space size into the node space,
// which every delta changes.
func (p *Patcher) Plan(a KeyAttrs, oldEdges int, wedgePairs int64, calibrated bool) Action {
	if p.Migratable(a) {
		return ActionMigrate
	}
	if a.Toplex || !a.Squeeze {
		return ActionDrop
	}
	if !a.Exact {
		// Short-circuited weights can only be migrated, never patched:
		// the patcher computes exact counts, which a later recompute of
		// the same key would not reproduce.
		return ActionDrop
	}
	if a.Dual && p.cliquePairCount() > cliquePairBudget {
		return ActionDrop
	}
	units := p.patchUnits(a.Dual) + int64(oldEdges)
	frac := patchFractionUncalibrated
	if calibrated {
		frac = patchFractionCalibrated
	}
	if wedgePairs > 0 && float64(units) > frac*float64(wedgePairs) {
		return ActionDrop
	}
	return ActionPatch
}

// Migratable reports whether a cached artifact with these attributes is
// provably unchanged by the delta and may simply be re-keyed to the new
// version. Unlike Plan it needs nothing from the cached value itself,
// so the measure cache — whose entries cannot be patched, only carried
// or dropped — decides with it directly.
func (p *Patcher) Migratable(a KeyAttrs) bool {
	if a.Toplex || !a.Squeeze {
		return false
	}
	return orderStable(a) && a.S > p.AffectedS(a.Dual)
}

// orderStable reports whether hyperedges surviving a delta keep their
// relative order in the working ID space (see Plan).
func orderStable(a KeyAttrs) bool {
	return !a.Dual || a.Relabel == hg.RelabelNone
}

// patchUnits estimates the patch work for one orientation in the same
// rough currency as hg.Stats.WedgePairs (pair visits).
func (p *Patcher) patchUnits(dual bool) int64 {
	if dual {
		avgDeg := 1.0
		if n := p.newH.NumVertices(); n > 0 {
			avgDeg = float64(p.newH.Incidences()) / float64(n)
		}
		return int64(float64(p.cliquePairCount()) * (2*avgDeg + 1))
	}
	var units int64
	for _, e := range p.d.Deletes {
		units += int64(p.base.EdgeSize(e))
	}
	for _, vs := range p.d.Inserts {
		for _, v := range vs {
			if int(v) < p.newH.NumVertices() {
				units += int64(p.newH.VertexDegree(v))
			}
		}
	}
	return units
}

// cliquePairCount is Σ |e|·(|e|−1)/2 over the delta's edges — the
// affected vertex pairs the clique enumeration would visit, counted
// with multiplicity and capped at twice the budget.
func (p *Patcher) cliquePairCount() int64 {
	var n int64
	count := func(sz int64) bool {
		n += sz * (sz - 1) / 2
		return n <= 2*cliquePairBudget
	}
	for _, e := range p.d.Deletes {
		if !count(int64(p.base.EdgeSize(e))) {
			return n
		}
	}
	for _, vs := range p.d.Inserts {
		if !count(int64(len(vs))) {
			return n
		}
	}
	return n
}

// insertPairs lazily recounts the inserted hyperedges' 2-hop frontiers
// with the Algorithm-2 kernel, yielding every line-orientation pair
// involving an inserted hyperedge (original IDs, U < V, exact
// weights). Inserted IDs are the highest in the space, so keeping only
// neighbors below the counted edge covers survivor–insert pairs once
// and insert–insert pairs once (from the higher ID's count).
func (p *Patcher) insertPairs() []core.Edge {
	p.lineOnce.Do(func() {
		m := uint32(p.base.NumEdges())
		for i := range p.d.Inserts {
			g := m + uint32(i)
			for _, oc := range core.OverlapCounts(p.newH, g) {
				if oc.Edge < g {
					p.linePairs = append(p.linePairs, core.Edge{U: oc.Edge, V: g, W: oc.Count})
				}
			}
		}
	})
	return p.linePairs
}

// pairKey packs a vertex pair (u < v) into one map key.
func pairKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// cliqueUpdates lazily enumerates the clique orientation's affected
// vertex pairs — pairs co-occurring inside some delta edge — and
// recounts each one's new adj(u, v) exactly. Pairs whose count did not
// change (an insert and a delete cancelling) are omitted. ok is false
// when the enumeration exceeded its budget, in which case the delta is
// global for this orientation.
func (p *Patcher) cliqueUpdates() (map[uint64]uint32, bool) {
	p.cliqueOnce.Do(func() {
		if p.cliquePairCount() > cliquePairBudget {
			return
		}
		net := make(map[uint64]int32)
		accumulate := func(vs []uint32, sign int32) {
			for i := 1; i < len(vs); i++ {
				for j := 0; j < i; j++ {
					net[pairKey(vs[j], vs[i])] += sign
				}
			}
		}
		for _, e := range p.d.Deletes {
			accumulate(p.base.EdgeVertices(e), -1)
		}
		for _, vs := range p.d.Inserts {
			accumulate(vs, +1)
		}
		p.cliquePairs = make(map[uint64]uint32, len(net))
		for k, delta := range net {
			if delta == 0 {
				continue
			}
			u, v := uint32(k>>32), uint32(k)
			p.cliquePairs[k] = uint32(p.newH.Adj(u, v))
		}
		p.cliqueOK = true
	})
	return p.cliquePairs, p.cliqueOK
}

// preparedFor returns (building on first use) the Stage-1 preprocessing
// of the new hypergraph for one orientation and relabel order.
func (p *Patcher) preparedFor(dual bool, relabel hg.RelabelOrder) (*core.Prepared, error) {
	k := preparedKey{dual: dual, relabel: relabel}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pp, ok := p.prepared[k]; ok {
		return pp, nil
	}
	work := p.newH
	if dual {
		work = work.Dual()
	}
	cfg := core.PipelineConfig{}
	cfg.Core.Relabel = relabel
	pp, err := core.PrepareFor(work, cfg)
	if err != nil {
		return nil, err
	}
	p.prepared[k] = pp
	return pp, nil
}

// Patch rewrites one cached projection for the new version: the cached
// graph's edges are lifted back to original-ID space, pairs the delta
// affected are dropped or replaced, the inserted hyperedges' new pairs
// are added, and the result is assembled through the same Stage-4 path
// as a full run — byte-identical Graph and HyperedgeIDs to a
// from-scratch recompute of the post-delta hypergraph. The caller must
// have gotten ActionPatch from Plan for this key.
func (p *Patcher) Patch(old *core.PipelineResult, a KeyAttrs) (*core.PipelineResult, error) {
	t0 := time.Now()
	var kept, added []core.Edge
	var err error
	if a.Dual {
		kept, added, err = p.patchCliquePairs(old, a.S)
	} else {
		kept, added = p.patchLinePairs(old, a.S)
	}
	if err != nil {
		return nil, err
	}
	pp, err := p.preparedFor(a.Dual, a.Relabel)
	if err != nil {
		return nil, err
	}
	origSpace := p.newH.NumEdges()
	if a.Dual {
		origSpace = p.newH.NumVertices()
	}
	toWork := pp.OrigToWork(origSpace)
	for _, list := range [][]core.Edge{kept, added} {
		for i, e := range list {
			wu, wv := toWork[e.U], toWork[e.V]
			if wu < 0 || wv < 0 {
				return nil, fmt.Errorf("delta: patched pair (%d, %d) maps outside the working hypergraph", e.U, e.V)
			}
			u, v := uint32(wu), uint32(wv)
			if u > v {
				u, v = v, u
			}
			list[i].U, list[i].V = u, v
		}
	}
	var work []core.Edge
	if orderStable(a) {
		// kept left the cached graph (U, V)-sorted and the survivors'
		// old node → new working ID map is monotone, so it still is:
		// only the handful of added pairs needs a sort.
		core.SortEdges(added)
		work = par.MergeSorted([][]core.Edge{kept, added}, graph.EdgeLess, par.Options{Workers: 1})
	} else {
		work = append(kept, added...)
		core.SortEdges(work)
	}
	plan := core.PlanInfo{
		Strategy: "patch",
		Reason:   fmt.Sprintf("incremental patch: %d inserts, %d deletes", len(p.d.Inserts), len(p.d.Deletes)),
		Relabel:  a.Relabel.String(),
	}
	stats := core.Stats{Edges: int64(len(work))}
	return pp.Assemble(a.S, work, time.Since(t0), stats, plan), nil
}

// patchLinePairs lifts the cached line projection to original IDs
// without the pairs touching deleted hyperedges (kept, in the cached
// graph's edge order), and selects the inserted hyperedges' pairs at or
// above s (added).
func (p *Patcher) patchLinePairs(old *core.PipelineResult, s int) (kept, added []core.Edge) {
	edges := old.Graph.Edges() // a fresh list, filtered and lifted in place
	kept = edges[:0]
	for _, e := range edges {
		u, v := old.HyperedgeIDs[e.U], old.HyperedgeIDs[e.V]
		if p.deleted[u] || p.deleted[v] {
			continue
		}
		kept = append(kept, core.Edge{U: u, V: v, W: e.W})
	}
	for _, e := range p.insertPairs() {
		if int(e.W) >= s {
			added = append(added, e)
		}
	}
	return kept, added
}

// patchCliquePairs lifts the cached clique projection to original
// vertex IDs without the affected pairs (kept, in the cached graph's
// edge order) and lists every affected pair whose recounted adj value
// is at or above s (added).
func (p *Patcher) patchCliquePairs(old *core.PipelineResult, s int) (kept, added []core.Edge, err error) {
	updates, ok := p.cliqueUpdates()
	if !ok {
		return nil, nil, fmt.Errorf("delta: clique pair enumeration over budget")
	}
	edges := old.Graph.Edges() // a fresh list, filtered and lifted in place
	kept = edges[:0]
	for _, e := range edges {
		u, v := old.HyperedgeIDs[e.U], old.HyperedgeIDs[e.V]
		if _, affected := updates[pairKey(u, v)]; affected {
			continue
		}
		kept = append(kept, core.Edge{U: u, V: v, W: e.W})
	}
	for k, w := range updates {
		if int(w) >= s {
			added = append(added, core.Edge{U: uint32(k >> 32), V: uint32(k), W: w})
		}
	}
	return kept, added, nil
}

// GlobalAffected is the AffectedS value meaning "assume every s is
// affected".
const GlobalAffected = math.MaxInt32
