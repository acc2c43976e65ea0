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
// once per cached projection key; the expensive state — the Algorithm-2
// recount of inserted hyperedges — is computed lazily and shared across
// every key that needs it. Nothing it computes is proportional to the
// dataset: per patched projection it copies runs of its node arrays and
// passes over its pending adds, and writes no rows (patchRows). Only line-orientation keys under
// RelabelNone are patched: every other key migrates when the delta
// provably leaves it unchanged and is dropped otherwise, to be
// recomputed on its next read.
//
// The locality argument: a delta inserts and deletes whole hyperedges,
// so in the line orientation the overlap |e ∩ f| of two surviving
// hyperedges never changes — only pairs involving a deleted ID
// disappear and pairs involving an inserted ID appear, and the latter
// live entirely inside the inserted edges' 2-hop frontier. A patch
// therefore never removes an edge between surviving nodes: gone nodes
// leave through the node map, and new pairs arrive as adds.
type Patcher struct {
	base *hg.Version
	newH *hg.Version
	d    *Delta

	// reason labels every patched result's plan.
	reason string

	// lineAffectedS and cliqueAffectedS bound the largest s any pair of
	// that orientation changes at: a projection at s above the bound is
	// identical before and after the delta. Both bounds are O(delta)
	// to compute — no counting pass.
	lineAffectedS   int
	cliqueAffectedS int

	// Lazily computed line-orientation pairs involving inserted
	// hyperedges: original-ID space, U < V, exact overlap weights.
	lineOnce  sync.Once
	linePairs []core.Edge

	// OnMaterialize, when set before the first Patch, is called once
	// each time the rows of a projection this patcher deferred are
	// built.
	OnMaterialize func()
}

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
		base:   base,
		newH:   newH,
		d:      d,
		reason: fmt.Sprintf("incremental patch: %d inserts, %d deletes", len(d.Inserts), len(d.Deletes)),
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
// projected whether the dataset lineage has run enough line-orientation
// Stage-3 passes to expect its entries to be read again.
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
// which every delta changes. Of the rest, only line keys
// under RelabelNone with exact weights are patched (see patchable);
// every other key that does not migrate is dropped and recomputed on
// its next read.
func (p *Patcher) Plan(a KeyAttrs, oldEdges int, wedgePairs int64, projected bool) Action {
	if p.Migratable(a) {
		return ActionMigrate
	}
	if !patchable(a) {
		return ActionDrop
	}
	units := p.patchUnits() + int64(oldEdges)
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
// squeezed and toplex off.
func keepable(a KeyAttrs) bool {
	return a.Squeeze && !a.Toplex
}

// orderStable reports whether hyperedges surviving a delta keep their
// relative order in the working ID space (see Plan).
func orderStable(a KeyAttrs) bool {
	return !a.Dual || a.Relabel == hg.RelabelNone
}

// patchable reports whether Patch serves a key: keepable, in the line
// orientation — where no surviving pair changes — under RelabelNone —
// where the working IDs are the input IDs (see patchRows) — and with
// exact weights. Short-circuited weights can only be migrated, never
// patched: the patcher computes exact counts, which a later recompute
// of the same key would not reproduce.
func patchable(a KeyAttrs) bool {
	return keepable(a) && !a.Dual && a.Relabel == hg.RelabelNone && a.Exact
}

// patchUnits estimates the patch work in the same rough currency as
// hg.Stats.WedgePairs (pair visits).
func (p *Patcher) patchUnits() int64 {
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

// Patch rewrites one cached projection for the new version, byte-
// identical — Graph and HyperedgeIDs — to a from-scratch recompute of
// the post-delta hypergraph, as a deferred graph whose rows are built
// on first read (patchRows). The caller must have gotten ActionPatch
// from Plan for this key; a key Plan never patches (see patchable) is
// an error, and nothing is written for it.
func (p *Patcher) Patch(old *core.PipelineResult, a KeyAttrs) (*core.PipelineResult, error) {
	if !patchable(a) {
		return nil, fmt.Errorf("delta: %s cannot be patched: only squeezed, toplex-free, exact line keys under relabel N are", a)
	}
	return p.patchRows(old, a)
}

// deferFraction bounds the pending adds of a deferred projection: a
// patch whose composed add list passes 1/deferFraction of the base's
// adjacency entries builds its rows at once and becomes the base of the
// next patch. Carrying the list forward costs each later patch about as
// much as rewriting that share of the rows.
const deferFraction = 8

// patchRows patches a key without writing rows: the
// result's graph is deferred (graph.Defer), one graph.Rewrite of a base
// graph — the cached projection itself when it has rows, else the base
// it defers to — composed across every delta since that base.
//
// Under relabel N with squeezing the working IDs are the input IDs, so
// the nodes of a projection ascend by HyperedgeIDs, which is also its
// squeeze map. The patch reads node positions from HyperedgeIDs only,
// never from the cached squeeze map (a projection cached by a build
// that compacted empty rows holds working IDs there). The old → new
// node map is monotone, and it changes only at O(delta) breakpoints: a
// node whose hyperedge the delta deletes, a node that dies because
// every edge it had was removed and none added, and an endpoint of an
// added pair that was no node (an inserted hyperedge, above every old
// ID, or a survivor isolated at s) slotting in by ID.
// Between breakpoints the new HyperedgeIDs and degrees are copies of
// runs of the old ones, and the node map is a graph.Runs. Only the rows
// of gone nodes and the pairs the delta names are read, through the
// pending adds (rowSource), so the work is copies of O(nodes) plus
// O(delta) lookups, never O(edges).
func (p *Patcher) patchRows(old *core.PipelineResult, a KeyAttrs) (*core.PipelineResult, error) {
	t0 := time.Now()
	ids := old.HyperedgeIDs
	n := uint32(len(ids))
	cur := readThrough(old.Graph)
	lowerBound := func(e uint32) uint32 {
		x, _ := slices.BinarySearch(ids, e)
		return uint32(x)
	}

	// gone: the old nodes whose hyperedges the delta deletes, ascending.
	gone := make([]uint32, 0, len(p.d.Deletes))
	for _, e := range p.d.Deletes {
		if x, ok := slices.BinarySearch(ids, e); ok {
			gone = append(gone, uint32(x))
		}
	}
	isGone := func(x uint32) bool {
		_, ok := slices.BinarySearch(gone, x)
		return ok
	}

	// added: the new pairs at or above s, in original IDs (U < V).
	added := make([]core.Edge, 0, len(p.insertPairs()))
	for _, e := range p.insertPairs() {
		if int(e.W) >= a.S {
			added = append(added, e)
		}
	}

	// lost: one entry per edge a kept old node loses, to a gone node,
	// ascending. Every slice below is sized up front, so a patch
	// allocates as often however many neighbours the delta reaches.
	lostCap := 0
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
	slices.Sort(lost)

	// add: the added pairs, both directions; ends: their distinct
	// sources, each with its hyperedge ID, its added degree, its old
	// node (Gone if it was none) and, once numbered, its new node.
	add := make([]graph.Edge, 0, 2*len(added))
	type end struct{ id, deg, old, node uint32 }
	named := make([]end, 0, 2*len(added))
	for _, e := range added {
		add = append(add, graph.Edge{U: e.U, V: e.V, W: e.W}, graph.Edge{U: e.V, V: e.U, W: e.W})
		named = append(named, end{id: e.U}, end{id: e.V})
	}
	core.SortEdges(add)
	byID := func(a, b end) int { return cmp.Compare(a.id, b.id) }
	slices.SortFunc(named, byID)
	ends := slices.CompactFunc(named, func(a, b end) bool { return a.id == b.id })
	for i, ai := 0, 0; i < len(ends); i++ {
		for ; ai < len(add) && add[ai].U == ends[i].id; ai++ {
			ends[i].deg++
		}
		ends[i].old = graph.Gone
		if x, ok := slices.BinarySearch(ids, ends[i].id); ok {
			ends[i].old = uint32(x)
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

	// ins: the ends that were no node, ascending by ID, each slotting
	// in before the old node at its position.
	type slot struct{ end, pos uint32 }
	ins := make([]slot, 0, len(ends))
	for i, e := range ends {
		if e.old == graph.Gone {
			ins = append(ins, slot{end: uint32(i), pos: lowerBound(e.id)})
		}
	}

	// Breakpoints in the old node space: the node map is constant
	// between them.
	bps := make([]uint32, 0, 2+2*len(removed)+len(ins))
	bps = append(bps, 0, n)
	for _, x := range removed {
		bps = append(bps, x, x+1)
	}
	for _, s := range ins {
		bps = append(bps, s.pos)
	}
	slices.Sort(bps)
	bps = slices.Compact(bps)

	// Number the new nodes in ID order: runs of kept old nodes, copied,
	// with the inserted ends between them. hids is the new HyperedgeIDs
	// and squeeze map, deg the new degrees, segs the old → new node map.
	size := int(n) - len(removed) + len(ins)
	hids := make([]uint32, 0, size)
	deg := make([]uint32, 0, size)
	segs := make(graph.Runs, 0, len(bps))
	insert := func(e *end) {
		e.node = uint32(len(hids))
		hids, deg = append(hids, e.id), append(deg, e.deg)
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
		node := uint32(len(hids))
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
	// The ID → node map is monotone, so add stays sorted.
	nodeOf := func(e uint32) uint32 {
		i, _ := slices.BinarySearchFunc(ends, end{id: e}, byID)
		return ends[i].node
	}
	for i := range add {
		add[i].U, add[i].V = nodeOf(add[i].U), nodeOf(add[i].V)
	}

	t1 := time.Now()
	next := cur.compose(segs, add, deg)
	ng, err := graph.Defer(next, hids, p.OnMaterialize)
	if err != nil {
		return nil, err
	}
	if len(next.Add) > 2*next.Base.NumEdges()/deferFraction {
		ng = ng.Materialize()
	}
	return &core.PipelineResult{
		S:            a.S,
		Graph:        ng,
		HyperedgeIDs: hids,
		Stats:        core.Stats{Edges: int64(ng.NumEdges())},
		Timings: core.StageTimings{
			SOverlap: t1.Sub(t0),
			Squeeze:  time.Since(t1),
		},
		Plan: core.PlanInfo{Strategy: "patch", Reason: p.reason, Relabel: a.Relabel.String()},
	}, nil
}

// rowSource reads a cached projection's rows whether or not they are
// built, as the pending rewrite that produces them: a node's row is its
// base row under the node map plus the adds, and Deg holds every node's
// degree. A graph with rows is its own base under the identity map.
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

// neighbors calls fn with every neighbour of node x.
func (r *rowSource) neighbors(x uint32, fn func(y uint32)) {
	if bx := r.Runs.Base(x); bx != graph.Gone {
		ys, _ := r.Base.Neighbors(bx)
		for _, by := range ys {
			if y := r.Runs.Node(by); y != graph.Gone {
				fn(y)
			}
		}
	}
	ai, _ := slices.BinarySearchFunc(r.Add, graph.Edge{U: x}, graph.EdgeCmp)
	for ; ai < len(r.Add) && r.Add[ai].U == x; ai++ {
		fn(r.Add[ai].V)
	}
}

// compose folds one more rewrite of r's graph — segs (node → next node;
// a node no run covers is gone) and add (directed pairs to insert, next
// node IDs, sorted as graph.Rewrite takes them) — into r's own, giving
// the one rewrite of r's base that yields the next graph, whose degrees
// are deg. r's adds touching a node that is gone from the next graph
// leave the list.
func (r *rowSource) compose(segs graph.Runs, add []graph.Edge, deg []uint32) *graph.Pending {
	carried := make([]graph.Edge, 0, len(r.Add))
	for _, e := range r.Add {
		if u, v := segs.Node(e.U), segs.Node(e.V); u != graph.Gone && v != graph.Gone {
			carried = append(carried, graph.Edge{U: u, V: v, W: e.W})
		}
	}
	return &graph.Pending{Base: r.Base, Runs: r.Runs.Then(segs), Add: mergeSorted(carried, add), Deg: deg}
}

// mergeSorted merges two sorted, disjoint pair lists into a fresh one.
func mergeSorted(a, b []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if graph.EdgeCmp(a[0], b[0]) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// GlobalAffected is the AffectedS value meaning "assume every s is
// affected".
const GlobalAffected = math.MaxInt32
