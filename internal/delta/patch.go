package delta

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
)

// Patcher incrementally maintains cached s-line projections across one
// delta. It is built once per applied delta (base → newH) and consulted
// once per cached projection key; the expensive state — the Algorithm-2
// recount of inserted hyperedges, which the line frontier needs too —
// is computed once and shared across every key. Nothing it computes is
// proportional to the dataset or to a projection: the frontier counts
// the delta's 2-hop frontier, and per patched projection it does O(delta)
// lookups and merges the pending adds and fixes it carries, and writes
// neither rows nor an array of the nodes (patchRows). Only
// line-orientation keys under RelabelNone are patched: every other key
// migrates when the delta provably leaves it unchanged and is dropped
// otherwise, to be recomputed on its next read.
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
	// identical before and after the delta. lineAffectedS is exact, the
	// weight of the heaviest pair the delta adds or removes, counted over
	// the delta's 2-hop frontier; cliqueAffectedS is the largest degree
	// of a vertex the delta touches, read in O(delta) with no count.
	lineAffectedS   int
	cliqueAffectedS int

	// linePairs is every line-orientation pair involving an inserted
	// hyperedge: original-ID space, U < V, exact overlap weights.
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
// touches and their 2-hop frontier, through the versions' edits, and
// builds neither.
func PatcherFor(base, newH *hg.Version, d *Delta) *Patcher {
	p := &Patcher{
		base:      base,
		newH:      newH,
		d:         d,
		reason:    fmt.Sprintf("incremental patch: %d inserts, %d deletes", len(d.Inserts), len(d.Deletes)),
		linePairs: insertPairs(base, newH, d),
	}
	// Line bound: two surviving hyperedges keep their overlap, so the
	// pairs that change are a deleted hyperedge's in the base — with
	// survivors and with other deleted ones — and the inserted ones'.
	for _, e := range d.Deletes {
		for _, oc := range core.OverlapCounts(base, e) {
			p.lineAffectedS = max(p.lineAffectedS, int(oc.Count))
		}
	}
	for _, e := range p.linePairs {
		p.lineAffectedS = max(p.lineAffectedS, int(e.W))
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
// s > AffectedS are identical before and after the delta. For the line
// orientation it is the smallest such bound: the projection at
// s = AffectedS(false) ≥ 1 changes.
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

// insertPairs recounts the inserted hyperedges' 2-hop frontiers in
// newH with the Algorithm-2 kernel, yielding every line-orientation
// pair involving an inserted hyperedge (original IDs, U < V, exact
// weights). Inserted IDs are the highest in the space, so keeping only
// neighbors below the counted edge covers survivor–insert pairs once
// and insert–insert pairs once (from the higher ID's count).
func insertPairs(base, newH *hg.Version, d *Delta) []core.Edge {
	var pairs []core.Edge
	m := uint32(base.NumEdges())
	for i := range d.Inserts {
		g := m + uint32(i)
		for _, oc := range core.OverlapCounts(newH, g) {
			if oc.Edge < g {
				pairs = append(pairs, core.Edge{U: oc.Edge, V: g, W: oc.Count})
			}
		}
	}
	return pairs
}

// Patch rewrites one cached projection for the new version, byte-
// identical — Graph and IDs — to a full recompute of
// the post-delta hypergraph, as a deferred graph whose rows are built
// on first read (patchRows). The caller must have gotten ActionPatch
// from Plan for this key; a key Plan never patches (see patchable) is
// an error, and nothing is written for it.
func (p *Patcher) Patch(old *core.PipelineResult, a KeyAttrs) (*core.PipelineResult, error) {
	if !patchable(a) {
		return nil, fmt.Errorf("delta: %s cannot be patched: only squeezed, toplex-free, exact line keys under relabel N are", a)
	}
	return p.patchRows(old, a), nil
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
// the nodes of a projection ascend by their input IDs, which are also
// its squeeze map. The patch reads node positions from those IDs only,
// never from the cached squeeze map (a projection cached by a build
// that compacted empty rows holds working IDs there). The old → new
// node map is monotone, and it changes only at O(delta) breakpoints: a
// node whose hyperedge the delta deletes, a node that dies because
// every edge it had was removed and none added, and an endpoint of an
// added pair that was no node (an inserted hyperedge, above every old
// ID, or a survivor isolated at s) slotting in by ID.
// Between breakpoints a node keeps its base node's ID and degree, and
// the node map is a graph.Runs; the nodes that do not — the inserted
// ones and the kept ones whose degree changed — are the rewrite's
// graph.Fix entries. So the result holds no array of its nodes: its
// IDs (core.PipelineResult.IDs) and degrees read through the rewrite
// until its first row read or ID expansion. Only the rows of gone
// nodes and the pairs the delta names are read, through the pending
// adds (rowSource), so the work is O(delta) lookups and a merge of the
// carried adds and fixes, never O(nodes) or O(edges).
func (p *Patcher) patchRows(old *core.PipelineResult, a KeyAttrs) *core.PipelineResult {
	t0 := time.Now()
	cur := readThrough(old)
	n := uint32(cur.Nodes)
	idOf := func(x uint32) uint32 { id, _ := cur.Node(x); return id }
	// find returns the first node whose ID is at least e, reporting
	// whether its ID is e.
	find := func(e uint32) (uint32, bool) {
		x := uint32(sort.Search(int(n), func(x int) bool { return idOf(uint32(x)) >= e }))
		return x, x < n && idOf(x) == e
	}

	// gone: the old nodes whose hyperedges the delta deletes, ascending.
	gone := make([]uint32, 0, len(p.d.Deletes))
	for _, e := range p.d.Deletes {
		if x, ok := find(e); ok {
			gone = append(gone, x)
		}
	}
	isGone := func(x uint32) bool {
		_, ok := slices.BinarySearch(gone, x)
		return ok
	}

	// added: the new pairs at or above s, in original IDs (U < V).
	added := make([]core.Edge, 0, len(p.linePairs))
	for _, e := range p.linePairs {
		if int(e.W) >= a.S {
			added = append(added, e)
		}
	}

	// lost: one entry per edge a kept old node loses, to a gone node,
	// ascending. Every slice below is sized up front, so a patch
	// allocates as often however many neighbours the delta reaches.
	goneDeg := 0
	for _, x := range gone {
		_, deg := cur.Node(x)
		goneDeg += int(deg)
	}
	lost := make([]uint32, 0, goneDeg)
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
		if x, ok := find(ends[i].id); ok {
			ends[i].old = x
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
		if _, deg := cur.Node(h.node); deg-h.lost+h.gain == 0 {
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
			pos, _ := find(e.id)
			ins = append(ins, slot{end: uint32(i), pos: pos})
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

	// Number the new nodes in ID order: runs of kept old nodes, with the
	// inserted ends between them. segs is the old → new node map, fix
	// this delta's fixes: the inserted ends, then the kept nodes whose
	// degree changed.
	segs := make(graph.Runs, 0, len(bps))
	fix := make([]graph.Fix, 0, len(ins)+len(hits))
	size := uint32(0)
	insert := func(e *end) {
		e.node = size
		fix = append(fix, graph.Fix{Node: size, ID: e.id, Deg: e.deg})
		size++
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
		segs = append(segs, graph.Run{Base: lo, Node: size, Len: hi - lo})
		size += hi - lo
	}
	for ; ii < len(ins); ii++ {
		insert(&ends[ins[ii].end])
	}
	for _, h := range hits {
		if y := segs.Node(h.node); y != graph.Gone && h.lost != h.gain {
			hid, deg := cur.Node(h.node)
			fix = append(fix, graph.Fix{Node: y, ID: hid, Deg: deg - h.lost + h.gain})
		}
	}
	slices.SortFunc(fix, fixCmp)
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
	// An edge leaves with a gone node at either end: len(lost) of them
	// at one, and the rest of goneDeg counts the others twice.
	edges := old.Graph.NumEdges() - (goneDeg+len(lost))/2 + len(added)

	t1 := time.Now()
	next := cur.compose(segs, add, fix, int(size), edges)
	ng := graph.Defer(next, p.OnMaterialize)
	if bound := 2 * next.Base.NumEdges() / deferFraction; len(next.Add) > bound || len(next.Fix) > bound {
		ng = ng.Materialize()
	}
	return &core.PipelineResult{
		S:     a.S,
		Graph: ng,
		Stats: core.Stats{Edges: int64(ng.NumEdges())},
		Timings: core.StageTimings{
			SOverlap: t1.Sub(t0),
			Squeeze:  time.Since(t1),
		},
		Plan: core.PlanInfo{Strategy: "patch", Reason: p.reason, Relabel: a.Relabel.String()},
	}
}

// rowSource reads a cached projection whether or not its rows are
// built, as the pending rewrite that produces it: a node's row is its
// base row under the node map plus the adds, and its ID and degree are
// its base node's unless the rewrite fixes them. A graph with rows is
// its own base under the identity map, with no fixes.
type rowSource struct {
	graph.Pending
}

// readThrough returns old's rows, IDs and degrees as a rowSource.
func readThrough(old *core.PipelineResult) *rowSource {
	if pend := old.Graph.Pending(); pend != nil {
		return &rowSource{*pend}
	}
	b := old.Graph.Materialize()
	r := &rowSource{graph.Pending{Base: b, Nodes: b.NumNodes(), Edges: b.NumEdges(), IDs: old.IDs()}}
	if r.Nodes > 0 {
		r.Runs = graph.Runs{{Len: uint32(r.Nodes)}}
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
// a node no run covers is gone), add (directed pairs to insert, next
// node IDs, sorted as graph.Rewrite takes them) and fix (the next
// graph's nodes whose ID or degree changed, by node) — into r's own,
// giving the one rewrite of r's base that yields the next graph, of
// nodes nodes and edges edges. r's adds and fixes at a node that is
// gone from the next graph leave their lists; a fix of this rewrite
// replaces r's at the same node.
func (r *rowSource) compose(segs graph.Runs, add []graph.Edge, fix []graph.Fix, nodes, edges int) *graph.Pending {
	carried := make([]graph.Edge, 0, len(r.Add))
	for _, e := range r.Add {
		if u, v := segs.Node(e.U), segs.Node(e.V); u != graph.Gone && v != graph.Gone {
			carried = append(carried, graph.Edge{U: u, V: v, W: e.W})
		}
	}
	kept := make([]graph.Fix, 0, len(r.Fix))
	for _, f := range r.Fix {
		if y := segs.Node(f.Node); y != graph.Gone {
			kept = append(kept, graph.Fix{Node: y, ID: f.ID, Deg: f.Deg})
		}
	}
	return &graph.Pending{
		Base:  r.Base,
		Runs:  r.Runs.Then(segs),
		Add:   mergeSorted(carried, add, graph.EdgeCmp),
		Fix:   mergeSorted(kept, fix, fixCmp),
		Nodes: nodes,
		Edges: edges,
		IDs:   r.IDs,
	}
}

// fixCmp orders fixes by node.
func fixCmp(a, b graph.Fix) int { return cmp.Compare(a.Node, b.Node) }

// mergeSorted merges two lists sorted by compare into a fresh one; of
// two equal elements only b's is kept.
func mergeSorted[T any](a, b []T, compare func(T, T) int) []T {
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := compare(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c == 0:
			a = a[1:]
		default:
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// GlobalAffected is the AffectedS value meaning "assume every s is
// affected".
const GlobalAffected = math.MaxInt32
