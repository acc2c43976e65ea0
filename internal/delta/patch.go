package delta

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
)

// Patcher incrementally maintains cached s-line projections across one
// delta. It is built once per applied delta (base → newH) and consulted
// once per cached projection key; the expensive per-orientation state —
// the Algorithm-2 recount of inserted hyperedges, the affected
// vertex-pair table of the clique orientation, and how the delta moves
// the working-ID order (an hg.Reorder, read off the rows the delta
// touches) — is computed lazily and shared across every key that needs
// it. Nothing it computes is proportional to the dataset: per patched
// projection it copies runs of its node arrays and passes over its
// pending lists, and order-stable patches write no rows (patchRows).
// The one exception is the clique orientation under a by-degree
// relabel, which is not order-stable: it derives the new version's
// whole working order (core.PrepareOrder) and rebuilds the projection.
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
	base *hg.Version
	newH *hg.Version
	d    *Delta

	// reason labels every patched result's plan.
	reason string

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

	// orders caches how the delta moves each order-stable
	// (orientation, relabel)'s working order, and prepared the new
	// hypergraph's full working order for the clique orientation under
	// A/D — each shared by every key patched under it.
	mu       sync.Mutex
	orders   map[preparedKey]*carried
	prepared map[preparedKey]*core.Prepared

	// OnMaterialize, when set before the first Patch, is called once
	// each time the rows of a projection this patcher deferred are
	// built.
	OnMaterialize func()
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
// this fraction of a full recompute (stats.WedgePairs). A dataset
// lineage that is being projected (the serving layer counts its Stage-3
// passes) will want its entries again, so patches up to half a
// recompute pay off; otherwise only clear wins are patched, since a
// patch of an entry no read needs is pure cost.
const (
	patchFractionProjected   = 0.5
	patchFractionUnprojected = 0.25
)

// NewPatcher builds the patcher for one applied delta. d must be the
// normalized delta that produced newH = Apply(base, d).
func NewPatcher(base, newH *hg.Hypergraph, d *Delta) *Patcher {
	return PatcherFor(hg.NewVersion(base, nil), hg.NewVersion(newH, nil), d)
}

// PatcherFor is NewPatcher on versions that need not be built: newH
// must be Compose(base, d). The patcher reads only the rows the delta
// touches, through the versions' edits, and builds neither.
func PatcherFor(base, newH *hg.Version, d *Delta) *Patcher {
	p := &Patcher{
		base:     base,
		newH:     newH,
		d:        d,
		reason:   fmt.Sprintf("incremental patch: %d inserts, %d deletes", len(d.Inserts), len(d.Deletes)),
		orders:   make(map[preparedKey]*carried),
		prepared: make(map[preparedKey]*core.Prepared),
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
	// ActionPatch edits the cached projection incrementally and caches
	// the patched result under the new version.
	ActionPatch
)

// KeyAttrs are the output-relevant attributes of one cached projection:
// the key the serving layer caches it under, minus dataset and version.
type KeyAttrs = core.OutputKey

// Plan decides what to do with one cached projection: oldEdges is the
// cached graph's edge count, wedgePairs the new version's recompute
// cost proxy (hg.Stats.WedgePairs of the orientation the key projects),
// projected whether the dataset lineage has run enough Stage-3 passes in
// that orientation to expect its entries to be read again.
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
// which every delta changes. A key with an unresolved auto knob names
// no concrete output and is dropped too.
func (p *Patcher) Plan(a KeyAttrs, oldEdges int, wedgePairs int64, projected bool) Action {
	if p.Migratable(a) {
		return ActionMigrate
	}
	if !keepable(a) {
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
	frac := patchFractionUnprojected
	if projected {
		frac = patchFractionProjected
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
	return keepable(a) && orderStable(a) && a.S > p.AffectedS(a.Dual)
}

// keepable reports whether a key can survive a delta at all (see Plan):
// squeezed, toplex off, and relabel resolved to a concrete order.
func keepable(a KeyAttrs) bool {
	return a.Squeeze && a.Toplex == core.ToplexOff && a.Relabel != hg.RelabelAuto
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

// carried is one order-stable (orientation, relabel)'s working order
// carried across the delta, and how long deriving it took.
type carried struct {
	ro   *hg.Reorder
	took time.Duration
}

// orderFor returns (deriving on first use) how the delta moves the
// working order of an order-stable orientation and relabel: the rows
// the delta empties and fills, ranked by hg.Version.WorkID in the old
// and the new version. It reads the delta's rows only — no row-length
// scan and nothing m-sized, unlike core.PrepareOrder.
func (p *Patcher) orderFor(dual bool, relabel hg.RelabelOrder) (*carried, error) {
	if relabel == hg.RelabelAuto {
		return nil, fmt.Errorf("delta: patching requires a resolved relabel order, got auto")
	}
	k := preparedKey{dual: dual, relabel: relabel}
	p.mu.Lock()
	defer p.mu.Unlock()
	if o, ok := p.orders[k]; ok {
		return o, nil
	}
	t0 := time.Now()
	o := &carried{ro: p.reorder(dual, relabel)}
	o.took = time.Since(t0)
	p.orders[k] = o
	return o, nil
}

// reorder derives the hg.Reorder of one order-stable orientation and
// relabel. In the line orientation the deleted hyperedges leave the
// working order and the inserted ones enter it; in the clique
// orientation a touched vertex leaves when the delta takes its last
// hyperedge and enters when it gets its first.
func (p *Patcher) reorder(dual bool, relabel hg.RelabelOrder) *hg.Reorder {
	was, now := orient(p.base, dual), orient(p.newH, dual)
	ro := &hg.Reorder{}
	if !dual {
		for _, e := range p.d.Deletes {
			ro.Gone = append(ro.Gone, uint32(was.WorkID(e, relabel)))
		}
		m := uint32(p.base.NumEdges())
		for i := range p.d.Inserts {
			ro.Enter = append(ro.Enter, uint32(now.WorkID(m+uint32(i), relabel)))
		}
	} else {
		var touched []uint32
		for _, e := range p.d.Deletes {
			touched = append(touched, p.base.EdgeVertices(e)...)
		}
		for _, vs := range p.d.Inserts {
			touched = append(touched, vs...)
		}
		slices.Sort(touched)
		for _, u := range slices.Compact(touched) {
			before := int(u) < was.NumEdges() && was.EdgeSize(u) > 0
			switch after := now.EdgeSize(u) > 0; {
			case before && !after:
				ro.Gone = append(ro.Gone, uint32(was.WorkID(u, relabel)))
			case !before && after:
				ro.Enter = append(ro.Enter, uint32(now.WorkID(u, relabel)))
			}
		}
	}
	slices.Sort(ro.Gone)
	slices.Sort(ro.Enter)
	return ro
}

// preparedFor returns (deriving on first use) the new hypergraph's
// working-ID order for a key that is not order-stable: the clique
// orientation under a by-degree relabel.
func (p *Patcher) preparedFor(dual bool, relabel hg.RelabelOrder) (*core.Prepared, error) {
	k := preparedKey{dual: dual, relabel: relabel}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pp, ok := p.prepared[k]; ok {
		return pp, nil
	}
	pp, err := core.PrepareOrder(orient(p.newH, dual), relabel)
	if err != nil {
		return nil, err
	}
	p.prepared[k] = pp
	return pp, nil
}

// orient is the hypergraph whose hyperedges an orientation's projection
// nodes are: h for the line orientation, its dual for the clique one.
// h is a flat *hg.Hypergraph or a *hg.Version.
func orient[H interface{ Dual() H }](h H, dual bool) H {
	if dual {
		return h.Dual()
	}
	return h
}

// Patch rewrites one cached projection for the new version, byte-
// identical — Graph and HyperedgeIDs — to a from-scratch recompute of
// the post-delta hypergraph. The caller must have gotten ActionPatch
// from Plan for this key. Order-stable keys get a deferred graph whose
// rows are built on first read (patchRows); clique keys under a
// by-degree relabel, whose surviving nodes reorder, are lifted to
// original IDs, edited, re-sorted and assembled through the same
// Stage-4 path as a full run.
func (p *Patcher) Patch(old *core.PipelineResult, a KeyAttrs) (*core.PipelineResult, error) {
	t0 := time.Now()
	plan := core.PlanInfo{
		Strategy: "patch",
		Reason:   p.reason,
		Relabel:  a.Relabel.String(),
	}
	if orderStable(a) {
		o, err := p.orderFor(a.Dual, a.Relabel)
		if err != nil {
			return nil, err
		}
		return p.patchRows(old, a, o, plan, t0)
	}
	pp, err := p.preparedFor(a.Dual, a.Relabel)
	if err != nil {
		return nil, err
	}
	work, err := p.patchCliquePairs(old, a.S)
	if err != nil {
		return nil, err
	}
	toWork := pp.OrigToWork()
	for i, e := range work {
		wu, wv := toWork[e.U], toWork[e.V]
		if wu < 0 || wv < 0 {
			return nil, fmt.Errorf("delta: patched pair (%d, %d) maps outside the working hypergraph", e.U, e.V)
		}
		work[i].U, work[i].V = uint32(min(wu, wv)), uint32(max(wu, wv))
	}
	core.SortEdges(work)
	stats := core.Stats{Edges: int64(len(work))}
	return pp.Assemble(a.S, work, time.Since(t0), stats, plan), nil
}

// deferFraction bounds the pending lists of a deferred projection: a
// patch whose composed drop and add lists pass 1/deferFraction of the
// base's adjacency entries builds its rows at once and becomes the base
// of the next patch. Carrying the lists forward costs each later patch
// about as much as rewriting that share of the rows.
const deferFraction = 8

// patchRows patches an order-stable key without writing rows: the
// result's graph is deferred (graph.Defer), one graph.Rewrite of a base
// graph — the cached projection itself when it has rows, else the base
// it defers to — composed across every delta since that base.
//
// Surviving nodes keep their relative order in the new working ID space,
// so the old → new node map is monotone, and it changes only at
// O(delta) breakpoints: a node whose row left the working order (its
// working ID is in the Reorder's Gone), a node that dies because every
// edge it had was removed and none added, an endpoint of an added pair
// that was no node (an inserted hyperedge, a vertex the delta gave its
// first hyperedge, or a survivor isolated at s) slotting in by working
// ID, and the working IDs where the Reorder shifts the squeeze map.
// Between breakpoints the new HyperedgeIDs, squeeze map and degrees are
// copies of runs of the old ones (the squeeze map shifted by one
// constant per run), and the node map is a graph.Runs. Only the rows of
// gone nodes and the pairs the delta names are read, through the
// pending lists (rowSource), so the work is copies of O(nodes) plus
// O(delta) lookups, never O(edges).
func (p *Patcher) patchRows(old *core.PipelineResult, a KeyAttrs, o *carried, plan core.PlanInfo, t0 time.Time) (*core.PipelineResult, error) {
	g, ids, work := old.Graph, old.HyperedgeIDs, old.Graph.Orig()
	n := uint32(len(ids))
	ro, nv := o.ro, orient(p.newH, a.Dual)
	cur := readThrough(g)
	lowerBound := func(w uint32) uint32 {
		x, _ := slices.BinarySearch(work, w)
		return uint32(x)
	}

	// gone: the old nodes whose rows left the working order, ascending.
	gone := make([]uint32, 0, len(ro.Gone))
	for _, w := range ro.Gone {
		if x, ok := slices.BinarySearch(work, w); ok {
			gone = append(gone, uint32(x))
		}
	}
	isGone := func(x uint32) bool {
		_, ok := slices.BinarySearch(gone, x)
		return ok
	}

	// Pairs in original IDs (U < V): the cached edges the delta changed
	// (clique orientation only: a line pair changes only through a
	// deleted endpoint, which is gone) and the new pairs at or above s.
	var changed, added []core.Edge
	if a.Dual {
		updates, ok := p.cliqueUpdates()
		if !ok {
			return nil, fmt.Errorf("delta: clique pair enumeration over budget")
		}
		changed, added = make([]core.Edge, 0, len(updates)), make([]core.Edge, 0, len(updates))
		for k, w := range updates {
			e := core.Edge{U: uint32(k >> 32), V: uint32(k), W: w}
			changed = append(changed, e)
			if int(w) >= a.S {
				added = append(added, e)
			}
		}
	} else {
		added = make([]core.Edge, 0, len(p.insertPairs()))
		for _, e := range p.insertPairs() {
			if int(e.W) >= a.S {
				added = append(added, e)
			}
		}
	}

	// drop: the changed pairs that are edges between kept nodes, both
	// directions, in old node IDs. Only unrelabeled clique keys get here
	// with changed pairs, and their nodes ascend by vertex ID.
	drop := make([]graph.Edge, 0, 2*len(changed))
	for _, e := range changed {
		x, okx := slices.BinarySearch(ids, e.U)
		y, oky := slices.BinarySearch(ids, e.V)
		if okx && oky && !isGone(uint32(x)) && !isGone(uint32(y)) && cur.hasEdge(uint32(x), uint32(y)) {
			drop = append(drop, graph.Edge{U: uint32(x), V: uint32(y)}, graph.Edge{U: uint32(y), V: uint32(x)})
		}
	}
	core.SortEdges(drop)

	// lost: one entry per edge a kept old node loses, ascending. Every
	// slice below is sized up front, so a patch allocates as often
	// however many neighbours the delta reaches.
	lostCap := len(drop)
	for _, x := range gone {
		lostCap += int(cur.Deg[x])
	}
	lost := make([]uint32, 0, lostCap)
	for _, x := range gone {
		cur.neighbors(x, func(y uint32) {
			if !isGone(y) {
				lost = append(lost, y)
			}
		})
	}
	for _, e := range drop {
		lost = append(lost, e.U)
	}
	slices.Sort(lost)

	// add: the added pairs in new working IDs, both directions; ends:
	// their distinct sources, each with its hyperedge ID, its added
	// degree, its old node (Gone if it was none) and, once numbered, its
	// new node.
	add := make([]graph.Edge, 0, 2*len(added))
	type end struct{ work, id, deg, old, node uint32 }
	named := make([]end, 0, 2*len(added))
	for _, e := range added {
		wu, wv := uint32(nv.WorkID(e.U, a.Relabel)), uint32(nv.WorkID(e.V, a.Relabel))
		add = append(add, graph.Edge{U: wu, V: wv, W: e.W}, graph.Edge{U: wv, V: wu, W: e.W})
		named = append(named, end{work: wu, id: e.U}, end{work: wv, id: e.V})
	}
	core.SortEdges(add)
	byWork := func(a, b end) int { return cmp.Compare(a.work, b.work) }
	slices.SortFunc(named, byWork)
	ends := slices.CompactFunc(named, func(a, b end) bool { return a.work == b.work })
	for i, ai := 0, 0; i < len(ends); i++ {
		for ; ai < len(add) && add[ai].U == ends[i].work; ai++ {
			ends[i].deg++
		}
		ends[i].old = graph.Gone
		if w, entered := ro.Back(ends[i].work); !entered {
			if x, ok := slices.BinarySearch(work, w); ok {
				ends[i].old = uint32(x)
			}
		}
	}

	// The kept old nodes whose degree changes, and the ones among them
	// that die; removed is every old node the new graph drops.
	type hit struct{ node, lost, gain uint32 }
	hits := make([]hit, 0, len(lost)+len(ends))
	for _, x := range lost {
		if len(hits) > 0 && hits[len(hits)-1].node == x {
			hits[len(hits)-1].lost++
		} else {
			hits = append(hits, hit{node: x, lost: 1})
		}
	}
	for _, e := range ends {
		if e.old == graph.Gone {
			continue
		}
		i, ok := slices.BinarySearchFunc(hits, e.old, func(h hit, x uint32) int { return cmp.Compare(h.node, x) })
		if !ok {
			hits = slices.Insert(hits, i, hit{node: e.old})
		}
		hits[i].gain += e.deg
	}
	removed := append(make([]uint32, 0, len(gone)+len(hits)), gone...)
	for _, h := range hits {
		if cur.Deg[h.node]-h.lost+h.gain == 0 {
			removed = append(removed, h.node)
		}
	}
	slices.Sort(removed)

	// ins: the ends that were no node, ascending by working ID, each
	// slotting in before the old node at its position.
	type slot struct{ end, pos uint32 }
	ins := make([]slot, 0, len(ends))
	for i, e := range ends {
		if e.old == graph.Gone {
			w, _ := ro.Back(e.work)
			ins = append(ins, slot{end: uint32(i), pos: lowerBound(w)})
		}
	}

	// Breakpoints in the old node space: the node map and the squeeze
	// map's shift are constant between them.
	bps := make([]uint32, 0, 2+2*len(removed)+len(ins)+len(ro.Gone)+len(ro.Enter))
	bps = append(bps, 0, n)
	for _, x := range removed {
		bps = append(bps, x, x+1)
	}
	for _, s := range ins {
		bps = append(bps, s.pos)
	}
	for _, w := range ro.Gone {
		bps = append(bps, lowerBound(w))
	}
	for _, w := range ro.Enter {
		old, _ := ro.Back(w)
		bps = append(bps, lowerBound(old))
	}
	slices.Sort(bps)
	bps = slices.Compact(bps)

	// Number the new nodes in working-ID order: runs of kept old nodes,
	// copied, with the inserted ends between them. orig is the new
	// squeeze map, hids the new HyperedgeIDs, deg the new degrees, segs
	// the old → new node map.
	size := int(n) - len(removed) + len(ins)
	orig := make([]uint32, 0, size)
	hids := make([]uint32, 0, size)
	deg := make([]uint32, 0, size)
	segs := make(graph.Runs, 0, len(bps))
	insert := func(e *end) {
		e.node = uint32(len(orig))
		orig, hids, deg = append(orig, e.work), append(hids, e.id), append(deg, e.deg)
	}
	ii, ri := 0, 0
	for k := 0; k+1 < len(bps); k++ {
		lo, hi := bps[k], bps[k+1]
		for ; ii < len(ins) && ins[ii].pos == lo; ii++ {
			insert(&ends[ins[ii].end])
		}
		if ri < len(removed) && removed[ri] == lo {
			ri++
			continue
		}
		node := uint32(len(orig))
		shift := ro.Map(work[lo]) - work[lo]
		orig = append(orig, work[lo:hi]...)
		for i := node; i < uint32(len(orig)); i++ {
			orig[i] += shift
		}
		hids = append(hids, ids[lo:hi]...)
		deg = append(deg, cur.Deg[lo:hi]...)
		segs = append(segs, graph.Run{Base: lo, Node: node, Len: hi - lo})
	}
	for ; ii < len(ins); ii++ {
		insert(&ends[ins[ii].end])
	}
	for _, h := range hits {
		if y := segs.Node(h.node); y != graph.Gone {
			deg[y] = cur.Deg[h.node] - h.lost + h.gain
		}
	}
	for i := range ends {
		if ends[i].old != graph.Gone {
			ends[i].node = segs.Node(ends[i].old)
		}
	}
	// The working → node map is monotone, so add stays sorted.
	nodeOf := func(w uint32) uint32 {
		i, _ := slices.BinarySearchFunc(ends, end{work: w}, byWork)
		return ends[i].node
	}
	for i := range add {
		add[i].U, add[i].V = nodeOf(add[i].U), nodeOf(add[i].V)
	}

	t1 := time.Now()
	next := cur.compose(segs, drop, add, deg)
	ng, err := graph.Defer(next, orig, p.OnMaterialize)
	if err != nil {
		return nil, err
	}
	if len(next.Drop)+len(next.Add) > 2*next.Base.NumEdges()/deferFraction {
		ng = ng.Materialize()
	}
	return &core.PipelineResult{
		S:            a.S,
		Graph:        ng,
		HyperedgeIDs: hids,
		Stats:        core.Stats{Edges: int64(ng.NumEdges())},
		Timings: core.StageTimings{
			Preprocess: o.took,
			SOverlap:   t1.Sub(t0),
			Squeeze:    time.Since(t1),
		},
		Plan: plan,
	}, nil
}

// rowSource reads a cached projection's rows whether or not they are
// built, as the pending rewrite that produces them: a node's row is its
// base row under the node map, minus the drops, plus the adds, and Deg
// holds every node's degree. A graph with rows is its own base under
// the identity map.
type rowSource struct {
	graph.Pending
}

// readThrough returns g's rows as a rowSource.
func readThrough(g *graph.Graph) *rowSource {
	if pend := g.Pending(); pend != nil {
		return &rowSource{*pend}
	}
	b := g.Materialize()
	r := &rowSource{graph.Pending{Base: b, Deg: make([]uint32, b.NumNodes())}}
	if len(r.Deg) > 0 {
		r.Runs = graph.Runs{{Len: uint32(len(r.Deg))}}
	}
	for x := range r.Deg {
		r.Deg[x] = uint32(b.Degree(uint32(x)))
	}
	return r
}

// edgeCmp orders edges by (U, V), as graph.EdgeLess.
func edgeCmp(a, b graph.Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// has reports whether the sorted list es holds the pair (u, v).
func has(es []graph.Edge, u, v uint32) bool {
	_, ok := slices.BinarySearchFunc(es, graph.Edge{U: u, V: v}, edgeCmp)
	return ok
}

// neighbors calls fn with every neighbour of node x.
func (r *rowSource) neighbors(x uint32, fn func(y uint32)) {
	if bx := r.Runs.Base(x); bx != graph.Gone {
		ys, _ := r.Base.Neighbors(bx)
		di, _ := slices.BinarySearchFunc(r.Drop, graph.Edge{U: bx}, edgeCmp)
		for _, by := range ys {
			for di < len(r.Drop) && r.Drop[di].U == bx && r.Drop[di].V < by {
				di++
			}
			if di < len(r.Drop) && r.Drop[di].U == bx && r.Drop[di].V == by {
				continue
			}
			if y := r.Runs.Node(by); y != graph.Gone {
				fn(y)
			}
		}
	}
	ai, _ := slices.BinarySearchFunc(r.Add, graph.Edge{U: x}, edgeCmp)
	for ; ai < len(r.Add) && r.Add[ai].U == x; ai++ {
		fn(r.Add[ai].V)
	}
}

// hasEdge reports whether {x, y} is an edge.
func (r *rowSource) hasEdge(x, y uint32) bool {
	if has(r.Add, x, y) {
		return true
	}
	bx, by := r.Runs.Base(x), r.Runs.Base(y)
	return bx != graph.Gone && by != graph.Gone && !has(r.Drop, bx, by) && r.Base.HasEdge(bx, by)
}

// compose folds one more rewrite of r's graph — segs (node → next node;
// a node no run covers is gone), drop (directed pairs to remove, node
// IDs) and add (directed pairs to insert, next node IDs), sorted as
// graph.Rewrite takes them — into r's own, giving the one rewrite of
// r's base that yields the next graph, whose degrees are deg. Pairs
// touching a node that is gone from the next graph leave both lists.
func (r *rowSource) compose(segs graph.Runs, drop, add []graph.Edge, deg []uint32) *graph.Pending {
	next := &graph.Pending{Base: r.Base, Runs: r.Runs.Then(segs), Deg: deg}
	// A dropped pair is one of r's adds, which it leaves, or an edge of
	// the base, dropped in base IDs. Base edges join nodes with base rows,
	// and base IDs ascend with node IDs, so the translation stays sorted.
	baseDrop := make([]graph.Edge, 0, len(drop))
	for _, e := range drop {
		if !has(r.Add, e.U, e.V) {
			baseDrop = append(baseDrop, graph.Edge{U: r.Runs.Base(e.U), V: r.Runs.Base(e.V)})
		}
	}
	next.Drop = mergeKept(r.Drop, baseDrop, next.Runs)
	carried := make([]graph.Edge, 0, len(r.Add))
	for _, e := range r.Add {
		if u, v := segs.Node(e.U), segs.Node(e.V); u != graph.Gone && v != graph.Gone && !has(drop, e.U, e.V) {
			carried = append(carried, graph.Edge{U: u, V: v, W: e.W})
		}
	}
	next.Add = mergeKept(carried, add, nil)
	return next
}

// mergeKept merges two sorted, disjoint pair lists into a fresh one,
// keeping only pairs whose ends both map to a node under runs. The add
// lists are in node IDs already, so compose merges them with runs nil,
// which keeps every pair.
func mergeKept(a, b []graph.Edge, runs graph.Runs) []graph.Edge {
	out := make([]graph.Edge, 0, len(a)+len(b))
	keep := func(e graph.Edge) {
		if runs == nil || (runs.Node(e.U) != graph.Gone && runs.Node(e.V) != graph.Gone) {
			out = append(out, e)
		}
	}
	for len(a) > 0 && len(b) > 0 {
		if edgeCmp(a[0], b[0]) < 0 {
			keep(a[0])
			a = a[1:]
		} else {
			keep(b[0])
			b = b[1:]
		}
	}
	for _, e := range a {
		keep(e)
	}
	for _, e := range b {
		keep(e)
	}
	return out
}

// patchCliquePairs lifts the cached clique projection to original
// vertex IDs without the affected pairs and appends every affected pair
// whose recounted adj value is at or above s: the new edge list in
// original IDs, unsorted.
func (p *Patcher) patchCliquePairs(old *core.PipelineResult, s int) ([]core.Edge, error) {
	updates, ok := p.cliqueUpdates()
	if !ok {
		return nil, fmt.Errorf("delta: clique pair enumeration over budget")
	}
	edges := old.Graph.Edges() // a fresh list, filtered and lifted in place
	out := edges[:0]
	for _, e := range edges {
		u, v := old.HyperedgeIDs[e.U], old.HyperedgeIDs[e.V]
		if _, affected := updates[pairKey(u, v)]; affected {
			continue
		}
		out = append(out, core.Edge{U: u, V: v, W: e.W})
	}
	for k, w := range updates {
		if int(w) >= s {
			out = append(out, core.Edge{U: uint32(k >> 32), V: uint32(k), W: w})
		}
	}
	return out, nil
}

// GlobalAffected is the AffectedS value meaning "assume every s is
// affected".
const GlobalAffected = math.MaxInt32
