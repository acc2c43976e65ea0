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
// vertex-pair table of the clique orientation, and the new
// hypergraph's working-ID order — is computed lazily and shared
// across every key that needs it. Nothing it computes is proportional
// to the dataset beyond one scan of an orientation's row lengths (the
// working-ID order) and, per patched projection, passes over its nodes
// and pending lists; order-stable patches write no rows (patchRows).
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

	// prepared caches the new hypergraph's working-ID order per
	// (orientation, relabel) — shared by every key patched under it.
	mu       sync.Mutex
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

// preparedFor returns (deriving on first use) the new hypergraph's
// working-ID order for one orientation and relabel order.
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
	pp, err := p.preparedFor(a.Dual, a.Relabel)
	if err != nil {
		return nil, err
	}
	plan := core.PlanInfo{
		Strategy: "patch",
		Reason:   p.reason,
		Relabel:  a.Relabel.String(),
	}
	if orderStable(a) {
		return p.patchRows(old, a, pp, plan, t0)
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
// Surviving nodes keep their relative order in the new working ID space,
// so the old → new node map is monotone: a node is gone when its
// hyperedge left the working space (a deleted hyperedge, or a vertex
// whose every hyperedge was deleted), dies when every edge it had was
// removed and none added (its degree says so), and otherwise keeps its
// row, minus removed neighbours and merged with the added pairs.
// Endpoints of added pairs that were not nodes before (inserted
// hyperedges, or survivors isolated at s) slot into the node order by
// working ID. Only the rows of gone nodes and the pairs the delta names
// are read, through the pending lists (rowSource), so the work is
// O(nodes + delta), never O(edges).
func (p *Patcher) patchRows(old *core.PipelineResult, a KeyAttrs, pp *core.Prepared, plan core.PlanInfo, t0 time.Time) (*core.PipelineResult, error) {
	g, ids := old.Graph, old.HyperedgeIDs
	n := g.NumNodes()
	toWork, edgeOrig := pp.OrigToWork(), pp.EdgeOrig()
	cur := readThrough(g)

	// remap[x] holds old node x's working ID (Gone if it left the working
	// space) until the walk below turns it into x's new node ID.
	remap := make([]uint32, n)
	for x, id := range ids {
		remap[x] = graph.Gone
		if w := toWork[id]; w >= 0 {
			remap[x] = uint32(w)
		}
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
		if okx && oky && remap[x] != graph.Gone && remap[y] != graph.Gone && cur.hasEdge(uint32(x), uint32(y)) {
			drop = append(drop, graph.Edge{U: uint32(x), V: uint32(y)}, graph.Edge{U: uint32(y), V: uint32(x)})
		}
	}
	core.SortEdges(drop)

	// lost[x] counts the edges kept old node x loses.
	lost := make([]uint32, n)
	for x := range remap {
		if remap[x] == graph.Gone {
			cur.neighbors(uint32(x), func(y uint32) {
				if remap[y] != graph.Gone {
					lost[y]++
				}
			})
		}
	}
	for _, e := range drop {
		lost[e.U]++
	}

	// add: the added pairs in working IDs, both directions; ends: their
	// distinct sources, each with its added degree and, once numbered,
	// its new node ID.
	add := make([]graph.Edge, 0, 2*len(added))
	for _, e := range added {
		wu, wv := toWork[e.U], toWork[e.V]
		if wu < 0 || wv < 0 {
			return nil, fmt.Errorf("delta: patched pair (%d, %d) maps outside the working hypergraph", e.U, e.V)
		}
		add = append(add, graph.Edge{U: uint32(wu), V: uint32(wv), W: e.W}, graph.Edge{U: uint32(wv), V: uint32(wu), W: e.W})
	}
	core.SortEdges(add)
	type end struct{ work, deg, node uint32 }
	ends := make([]end, 0, len(add))
	for _, e := range add {
		if len(ends) > 0 && ends[len(ends)-1].work == e.U {
			ends[len(ends)-1].deg++
		} else {
			ends = append(ends, end{work: e.U, deg: 1})
		}
	}

	// Number the new nodes in working-ID order: kept old nodes merged
	// with the added pairs' endpoints, skipping old nodes left without an
	// edge. orig is the new squeeze map, hids the new HyperedgeIDs, deg
	// the new degrees.
	orig := make([]uint32, 0, n+len(ends))
	hids := make([]uint32, 0, n+len(ends))
	deg := make([]uint32, 0, n+len(ends))
	ei := 0
	number := func(w, id uint32, d int) uint32 {
		orig, hids, deg = append(orig, w), append(hids, id), append(deg, uint32(d))
		return uint32(len(orig) - 1)
	}
	for x := range remap {
		w := remap[x]
		if w == graph.Gone {
			continue
		}
		for ; ei < len(ends) && ends[ei].work < w; ei++ {
			ends[ei].node = number(ends[ei].work, edgeOrig[ends[ei].work], int(ends[ei].deg))
		}
		d := g.Degree(uint32(x)) - int(lost[x])
		isEnd := ei < len(ends) && ends[ei].work == w
		if isEnd {
			d += int(ends[ei].deg)
		}
		if d == 0 {
			remap[x] = graph.Gone
			continue
		}
		remap[x] = number(w, ids[x], d)
		if isEnd {
			ends[ei].node = remap[x]
			ei++
		}
	}
	for ; ei < len(ends); ei++ {
		ends[ei].node = number(ends[ei].work, edgeOrig[ends[ei].work], int(ends[ei].deg))
	}
	// The working → node map is monotone, so add stays sorted.
	nodeOf := func(w uint32) uint32 {
		i, _ := slices.BinarySearchFunc(ends, w, func(e end, w uint32) int { return cmp.Compare(e.work, w) })
		return ends[i].node
	}
	for i := range add {
		add[i].U, add[i].V = nodeOf(add[i].U), nodeOf(add[i].V)
	}

	t1 := time.Now()
	next := cur.compose(remap, drop, add, deg)
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
			Preprocess: pp.PreprocessTime(),
			SOverlap:   t1.Sub(t0),
			Squeeze:    time.Since(t1),
		},
		Plan: plan,
	}, nil
}

// rowSource reads a cached projection's rows whether or not they are
// built, as the pending rewrite that produces them: a node's row is its
// base row under the remap, minus the drops, plus the adds. A graph
// with rows is its own base under the identity remap.
type rowSource struct {
	graph.Pending
	// baseOf maps a node to its base node, Gone for a node with no base
	// row; nil under the identity remap.
	baseOf []uint32
}

// readThrough returns g's rows as a rowSource.
func readThrough(g *graph.Graph) *rowSource {
	pend := g.Pending()
	if pend == nil {
		return &rowSource{Pending: graph.Pending{Base: g.Materialize()}}
	}
	r := &rowSource{Pending: *pend, baseOf: make([]uint32, g.NumNodes())}
	for x := range r.baseOf {
		r.baseOf[x] = graph.Gone
	}
	for bx, x := range pend.Remap {
		if x != graph.Gone {
			r.baseOf[x] = uint32(bx)
		}
	}
	return r
}

// base returns node x's base node (Gone if it has none).
func (r *rowSource) base(x uint32) uint32 {
	if r.baseOf == nil {
		return x
	}
	return r.baseOf[x]
}

// node returns base node bx's node (Gone if it has none).
func (r *rowSource) node(bx uint32) uint32 {
	if r.Remap == nil {
		return bx
	}
	return r.Remap[bx]
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
	if bx := r.base(x); bx != graph.Gone {
		ys, _ := r.Base.Neighbors(bx)
		di, _ := slices.BinarySearchFunc(r.Drop, graph.Edge{U: bx}, edgeCmp)
		for _, by := range ys {
			for di < len(r.Drop) && r.Drop[di].U == bx && r.Drop[di].V < by {
				di++
			}
			if di < len(r.Drop) && r.Drop[di].U == bx && r.Drop[di].V == by {
				continue
			}
			if y := r.node(by); y != graph.Gone {
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
	bx, by := r.base(x), r.base(y)
	return bx != graph.Gone && by != graph.Gone && !has(r.Drop, bx, by) && r.Base.HasEdge(bx, by)
}

// compose folds one more rewrite of r's graph — remap (node → next node
// or Gone), drop (directed pairs to remove, node IDs) and add (directed
// pairs to insert, next node IDs), sorted as graph.Rewrite takes them —
// into r's own, giving the one rewrite of r's base that yields the next
// graph, whose degrees are deg. Pairs touching a node that is gone from
// the next graph leave both lists.
func (r *rowSource) compose(remap []uint32, drop, add []graph.Edge, deg []uint32) *graph.Pending {
	next := &graph.Pending{Base: r.Base, Remap: remap, Deg: deg}
	if r.Remap != nil {
		next.Remap = make([]uint32, len(r.Remap))
		for bx, x := range r.Remap {
			next.Remap[bx] = graph.Gone
			if x != graph.Gone {
				next.Remap[bx] = remap[x]
			}
		}
	}
	// A dropped pair is one of r's adds, which it leaves, or an edge of
	// the base, dropped in base IDs. Base edges join nodes with base rows,
	// and base IDs ascend with node IDs, so the translation stays sorted.
	baseDrop := make([]graph.Edge, 0, len(drop))
	for _, e := range drop {
		if !has(r.Add, e.U, e.V) {
			baseDrop = append(baseDrop, graph.Edge{U: r.base(e.U), V: r.base(e.V)})
		}
	}
	next.Drop = mergeKept(r.Drop, baseDrop, next.Remap)
	carried := make([]graph.Edge, 0, len(r.Add))
	for _, e := range r.Add {
		if u, v := remap[e.U], remap[e.V]; u != graph.Gone && v != graph.Gone && !has(drop, e.U, e.V) {
			carried = append(carried, graph.Edge{U: u, V: v, W: e.W})
		}
	}
	next.Add = mergeKept(carried, add, nil)
	return next
}

// mergeKept merges two sorted, disjoint pair lists into a fresh one,
// keeping only pairs whose ends both map to a node under remap (every
// pair when remap is nil).
func mergeKept(a, b []graph.Edge, remap []uint32) []graph.Edge {
	out := make([]graph.Edge, 0, len(a)+len(b))
	keep := func(e graph.Edge) {
		if remap == nil || (remap[e.U] != graph.Gone && remap[e.V] != graph.Gone) {
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
