package delta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// This file is the correctness contract of the incremental patcher: for
// seeded generated hypergraphs × random delta batches × s = 1..5,
// patching a cached line-orientation projection under relabel N must be
// byte-identical — Graph CSR, HyperedgeIDs, S — to recomputing the
// projection from scratch on the post-delta hypergraph. For clique keys
// and under the by-degree relabels A and D, Plan must never patch, and
// every key it migrates, in either orientation, must serve the
// recompute's answer unchanged. CI runs this package under -race, so
// the lazily shared patcher state is exercised for data races as well.

// relabels are the concrete relabel orders a cache key can carry.
var relabels = []hg.RelabelOrder{hg.RelabelNone, hg.RelabelAscending, hg.RelabelDescending}

// orient is the hypergraph whose hyperedges an orientation's projection
// nodes are: h for the line orientation, its dual for the clique one.
func orient(h *hg.Hypergraph, dual bool) *hg.Hypergraph {
	if dual {
		return h.Dual()
	}
	return h
}

// patched reports whether the tests patch a key of that orientation
// and relabel: only line keys under relabel N are patched.
func patched(dual bool, relabel hg.RelabelOrder) bool {
	return !dual && relabel == hg.RelabelNone
}

// neverPatched fails the test when Plan would patch a, under the
// terms most favourable to patching: no cached edges, no cost bound,
// a projected lineage.
func neverPatched(t *testing.T, label string, p *Patcher, a KeyAttrs) {
	t.Helper()
	if got := p.Plan(a, 0, 0, true); got == ActionPatch {
		t.Fatalf("%s: Plan patches %s", label, a)
	}
}

// pipelineAt runs the pipeline for one s, failing the test on error.
func pipelineAt(t testing.TB, h *hg.Hypergraph, s int, cfg core.PipelineConfig) *core.PipelineResult {
	t.Helper()
	out, err := core.RunBatch(context.Background(), h, []int{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out[s]
}

// exactCfg is the pipeline configuration of patchable cache keys:
// exact weights, squeeze on, toplex off, pinned relabel.
func exactCfg(relabel hg.RelabelOrder) core.PipelineConfig {
	var cfg core.PipelineConfig
	cfg.Core.Relabel = relabel
	cfg.Core.DisableShortCircuit = true
	return cfg
}

// sameResult asserts byte-identity of the contract fields: the graph's
// CSR arrays, the node→hyperedge mapping, and s. (Timings, Stats, and
// Plan legitimately differ between a patch and a recompute.)
func sameResult(t *testing.T, label string, got, want *core.PipelineResult) {
	t.Helper()
	if got.S != want.S {
		t.Fatalf("%s: s = %d, want %d", label, got.S, want.S)
	}
	gOff, gAdj, gWgt, gOrig := got.Graph.CSR()
	wOff, wAdj, wWgt, wOrig := want.Graph.CSR()
	if !reflect.DeepEqual(gOff, wOff) || !reflect.DeepEqual(gAdj, wAdj) ||
		!reflect.DeepEqual(gWgt, wWgt) || !reflect.DeepEqual(gOrig, wOrig) {
		t.Fatalf("%s: patched CSR differs from recompute (nodes %d vs %d, edges %d vs %d)",
			label, got.Graph.NumNodes(), want.Graph.NumNodes(), got.Graph.NumEdges(), want.Graph.NumEdges())
	}
	if !reflect.DeepEqual(got.IDs(), want.IDs()) {
		t.Fatalf("%s: patched HyperedgeIDs differ from recompute", label)
	}
}

// sameServed asserts identity of every externally served field — the
// adjacency CSR and the node→hyperedge mapping — but not the graph's
// internal squeeze→work-space mapping: dropping a tombstoned row shifts
// the work IDs of everything behind it, so a migrated (carried-forward)
// result legitimately differs there while serving identical answers.
func sameServed(t *testing.T, label string, got, want *core.PipelineResult) {
	t.Helper()
	if got.S != want.S {
		t.Fatalf("%s: s = %d, want %d", label, got.S, want.S)
	}
	gOff, gAdj, gWgt, _ := got.Graph.CSR()
	wOff, wAdj, wWgt, _ := want.Graph.CSR()
	if !reflect.DeepEqual(gOff, wOff) || !reflect.DeepEqual(gAdj, wAdj) || !reflect.DeepEqual(gWgt, wWgt) {
		t.Fatalf("%s: migrated CSR differs from recompute", label)
	}
	if !reflect.DeepEqual(got.IDs(), want.IDs()) {
		t.Fatalf("%s: migrated HyperedgeIDs differ from recompute", label)
	}
}

// randomDelta draws a delta against base: a few deletions of non-empty
// rows and a few inserted hyperedges, possibly referencing one new
// vertex (valid under the growth bound whenever the delta carries at
// least two incidences, which the sizes below guarantee).
func randomDelta(rng *rand.Rand, base *hg.Hypergraph) *Delta {
	d := &Delta{}
	var nonEmpty []uint32
	for e := 0; e < base.NumEdges(); e++ {
		if base.EdgeSize(uint32(e)) > 0 {
			nonEmpty = append(nonEmpty, uint32(e))
		}
	}
	nDel := 1 + rng.Intn(3)
	rng.Shuffle(len(nonEmpty), func(i, j int) { nonEmpty[i], nonEmpty[j] = nonEmpty[j], nonEmpty[i] })
	if nDel > len(nonEmpty) {
		nDel = len(nonEmpty)
	}
	d.Deletes = append(d.Deletes, nonEmpty[:nDel]...)
	nIns := 1 + rng.Intn(3)
	for i := 0; i < nIns; i++ {
		sz := 2 + rng.Intn(4)
		seen := make(map[uint32]bool, sz)
		for len(seen) < sz {
			// +1 admits one brand-new vertex ID per draw.
			seen[uint32(rng.Intn(base.NumVertices()+1))] = true
		}
		vs := make([]uint32, 0, sz)
		for v := range seen {
			vs = append(vs, v)
		}
		d.Inserts = append(d.Inserts, vs)
	}
	return d
}

// isolatingDelta is randomDelta plus, every other step, the deletion
// of a hyperedge holding a vertex of degree one, which isolates the
// vertex.
func isolatingDelta(rng *rand.Rand, h *hg.Hypergraph, step int) *Delta {
	d := randomDelta(rng, h)
	if step%2 == 1 {
		for u := uint32(0); int(u) < h.NumVertices(); u++ {
			if h.VertexDegree(u) == 1 {
				d.Deletes = append(d.Deletes, h.VertexEdges(u)[0])
				break
			}
		}
	}
	return d
}

func testBases(t *testing.T) map[string]*hg.Hypergraph {
	t.Helper()
	return map[string]*hg.Hypergraph{
		"paper": paperExample(),
		"zipf": gen.Zipf(gen.ZipfConfig{
			Seed: 7, NumVertices: 60, NumEdges: 80, MeanEdgeSize: 4, MaxEdgeSize: 10,
		}),
		"community": gen.Community(gen.CommunityConfig{
			Seed: 11, NumVertices: 50, NumCommunities: 5,
			MeanCommunitySize: 8, EdgesPerCommunity: 10, Background: 10,
		}),
	}
}

// equivCase is one base hypergraph and one delta against it.
type equivCase struct {
	name string
	base *hg.Hypergraph
	d    *Delta
}

// edgeCases are the named shapes the row rewrite must get right.
func edgeCases() []equivCase {
	return []equivCase{
		// Hyperedge 0's only neighbour is deleted, so its node dies.
		{"only-neighbour-lost", hg.FromEdgeSlices([][]uint32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}}, 6),
			&Delta{Deletes: []uint32{1}}},
		// Hyperedge 2 and vertex 5 are isolated before and gain an
		// edge to the insert.
		{"isolated-survivor-joins", hg.FromEdgeSlices([][]uint32{{0, 1}, {1, 2}, {3, 4}}, 6),
			&Delta{Inserts: [][]uint32{{4, 5}}}},
		// The only new pair is between the two inserts.
		{"insert-insert", hg.FromEdgeSlices([][]uint32{{0, 1}, {2, 3}}, 7),
			&Delta{Inserts: [][]uint32{{4, 5}, {5, 6}}}},
		{"delete-first-and-last", paperExample(), &Delta{Deletes: []uint32{0, 3}}},
		// Vertex 7 is the largest ID two inserted incidences may name.
		{"vertex-at-growth-bound", paperExample(), &Delta{Inserts: [][]uint32{{0, 7}}}},
	}
}

// checkPatch asserts, for both orientations × every relabel order × s
// in 1..maxS, that patching base's line projection across d under
// relabel N equals the recompute on the post-delta hypergraph, that
// Plan patches no clique key and no key under A or D, and that every
// key the patcher calls migratable serves the same answer unchanged;
// and that the line frontier is tight: the projection at
// s = AffectedS(false), when that is at least 1, changes.
func checkPatch(t *testing.T, label string, base *hg.Hypergraph, d *Delta, maxS int) {
	t.Helper()
	newH, err := Apply(base, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	p := NewPatcher(base, newH, d)
	for _, dual := range []bool{false, true} {
		for _, relabel := range relabels {
			cfg := exactCfg(relabel)
			for s := 1; s <= maxS; s++ {
				label := fmt.Sprintf("%s/dual=%v/relabel=%s/s=%d", label, dual, relabel, s)
				old := pipelineAt(t, orient(base, dual), s, cfg)
				fresh := pipelineAt(t, orient(newH, dual), s, cfg)
				a := KeyAttrs{Dual: dual, S: s, Exact: true, Relabel: relabel, Squeeze: true}
				if patched(dual, relabel) {
					res, err := p.Patch(old, a)
					if err != nil {
						t.Fatalf("%s: Patch: %v", label, err)
					}
					sameResult(t, label, res, fresh)
				} else {
					neverPatched(t, label, p, a)
				}
				// Migration soundness: a key the patcher calls
				// unchanged must really be unchanged.
				if p.Migratable(a) {
					sameServed(t, label+" (migrate)", old, fresh)
				}
			}
		}
	}
	// Migration tightness: the line frontier is the smallest bound, so
	// the key at it is not unchanged.
	if f := p.AffectedS(false); f > 0 {
		cfg := exactCfg(hg.RelabelNone)
		if served(pipelineAt(t, base, f, cfg)) == served(pipelineAt(t, newH, f, cfg)) {
			t.Fatalf("%s: the line projection at the frontier s=%d is unchanged: the bound is not tight", label, f)
		}
	}
}

// served renders the externally served fields of a result — its edges
// with their weights and the node→hyperedge mapping — for comparison.
func served(r *core.PipelineResult) string {
	return fmt.Sprint(r.Graph.Edges(), r.IDs())
}

// carry takes one cached projection across a delta as the service does:
// Plan, on the terms most favourable to patching, migrates it, patches
// it, or drops it for fresh, the recompute on the post-delta
// hypergraph. It fails the test when Plan patches a key the tests never
// patch or drops one they do, and checks the carried result against
// fresh: byte for byte for a line key under relabel N, its served
// fields for any other.
func carry(t *testing.T, label string, p *Patcher, a KeyAttrs, old, fresh *core.PipelineResult) *core.PipelineResult {
	t.Helper()
	res := fresh
	switch action := p.Plan(a, 0, 0, true); {
	case action == ActionMigrate:
		res = old
	case action == ActionPatch && patched(a.Dual, a.Relabel):
		var err error
		if res, err = p.Patch(old, a); err != nil {
			t.Fatalf("%s: Patch: %v", label, err)
		}
	case action == ActionPatch:
		t.Fatalf("%s: Plan patches %s", label, a)
	case patched(a.Dual, a.Relabel):
		t.Fatalf("%s: Plan drops %s on the terms most favourable to patching", label, a)
	}
	if patched(a.Dual, a.Relabel) {
		sameResult(t, label, res, fresh)
	} else {
		sameServed(t, label, res, fresh)
	}
	return res
}

// TestPatchEquivalence is the headline property: patch == recompute,
// byte for byte, across bases × deltas × s for line keys under relabel
// N, and migrate ⇒ unchanged for every orientation and relabel.
func TestPatchEquivalence(t *testing.T) {
	cases := edgeCases()
	for name, base := range testBases(t) {
		for deltaSeed := int64(0); deltaSeed < 3; deltaSeed++ {
			d := randomDelta(rand.New(rand.NewSource(deltaSeed)), base)
			cases = append(cases, equivCase{fmt.Sprintf("%s/seed%d", name, deltaSeed), base, d})
		}
	}
	for _, c := range cases {
		checkPatch(t, c.name, c.base, c.d, 5)
	}
}

// TestLineFrontierExact pins the line frontier to the heaviest pair a
// delta adds or removes, not to the size of its largest hyperedge, on
// named shapes where the two differ. Each base goes on with a hyperedge
// {10, 11} and 100 more pairs, none of which overlaps anything; a first
// delta deletes {10, 11}, so that every shape is also composed onto a
// pending version through PatcherFor (the pairs keep it below the
// pending-build bound), where the frontier must be the same and the
// line key under relabel N at s = 1..4 migrates exactly above it and is
// carried to the recompute.
func TestLineFrontierExact(t *testing.T) {
	for _, c := range []struct {
		name  string
		edges [][]uint32
		d     *Delta
		want  int
	}{
		// The 4-vertex insert meets each hyperedge in one vertex.
		{"insert-overlaps-by-one", [][]uint32{{0, 1, 2}, {2, 3, 4}, {4, 5, 6}},
			&Delta{Inserts: [][]uint32{{0, 3, 6, 9}}}, 1},
		// Hyperedge 2 shares no vertex with any other: every key migrates.
		{"delete-without-pairs", [][]uint32{{0, 1, 2}, {1, 2, 3}, {7, 8}},
			&Delta{Deletes: []uint32{2}}, 0},
		// The inserts share three vertices; every survivor pair weighs 1.
		{"insert-insert-heaviest", [][]uint32{{0, 1}, {1, 2}, {2, 3}},
			&Delta{Inserts: [][]uint32{{4, 5, 6}, {0, 4, 5, 6}}}, 3},
		// Hyperedges 0 and 1 share three vertices and are deleted together.
		{"delete-delete-heaviest", [][]uint32{{0, 1, 2, 3}, {0, 1, 2, 4}, {3, 5}, {4, 6}},
			&Delta{Deletes: []uint32{0, 1}}, 3},
	} {
		edges := append(c.edges, []uint32{10, 11})
		for v := uint32(12); v < 212; v += 2 {
			edges = append(edges, []uint32{v, v + 1})
		}
		base := hg.FromEdgeSlices(edges, 212)
		newH, err := Apply(base, c.d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := NewPatcher(base, newH, c.d).AffectedS(false); got != c.want {
			t.Fatalf("%s: line frontier %d, want %d", c.name, got, c.want)
		}
		checkPatch(t, c.name, base, c.d, 4)

		d0 := &Delta{Deletes: []uint32{uint32(len(c.edges))}}
		v1, err := Compose(hg.NewVersion(base, nil), d0)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := Compose(v1, c.d)
		if err != nil {
			t.Fatal(err)
		}
		if !v1.Pending() || !v2.Pending() {
			t.Fatalf("%s: the composed versions were built", c.name)
		}
		h1, err := Apply(base, d0)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Apply(h1, c.d)
		if err != nil {
			t.Fatal(err)
		}
		p := PatcherFor(v1, v2, c.d)
		if got := p.AffectedS(false); got != c.want {
			t.Fatalf("%s: composed line frontier %d, want %d", c.name, got, c.want)
		}
		cfg := exactCfg(hg.RelabelNone)
		for s := 1; s <= 4; s++ {
			a := KeyAttrs{S: s, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
			label := fmt.Sprintf("%s/composed/s=%d", c.name, s)
			if p.Migratable(a) != (s > c.want) {
				t.Fatalf("%s: migratable %v, want %v", label, p.Migratable(a), s > c.want)
			}
			carry(t, label, p, a, pipelineAt(t, h1, s, cfg), pipelineAt(t, h2, s, cfg))
		}
	}
}

// TestPatchEquivalenceChained carries a cached projection through a
// chain of deltas as the service does (carry: migrate, patch or
// recompute, as Plan says) — each step reuses the previous step's
// result as its cached input — and checks it against a from-scratch
// recompute after every step, so neither patching nor migrating
// accumulates drift across versions, and a patched key that later
// migrates, or a migrated one later patched, still matches. For clique
// keys and under A and D, Plan never patches.
func TestPatchEquivalenceChained(t *testing.T) {
	base := gen.Zipf(gen.ZipfConfig{
		Seed: 3, NumVertices: 40, NumEdges: 50, MeanEdgeSize: 4, MaxEdgeSize: 8,
	})
	for _, relabel := range relabels {
		rng := rand.New(rand.NewSource(42))
		for _, dual := range []bool{false, true} {
			cfg := exactCfg(relabel)
			for s := 1; s <= 3; s++ {
				h := base
				cur := pipelineAt(t, orient(h, dual), s, cfg)
				label := fmt.Sprintf("chained/relabel=%s/dual=%v/s=%d", relabel, dual, s)
				for step := 0; step < 4; step++ {
					d := randomDelta(rng, h)
					newH, err := Apply(h, d)
					if err != nil {
						t.Fatal(err)
					}
					p := NewPatcher(h, newH, d)
					a := KeyAttrs{Dual: dual, S: s, Exact: true, Relabel: relabel, Squeeze: true}
					cur = carry(t, fmt.Sprintf("%s/step=%d", label, step), p, a, cur, pipelineAt(t, orient(newH, dual), s, cfg))
					h = newH
				}
			}
		}
	}

	// Chains composed onto pending versions, as the service runs them:
	// k = 1..8 deltas that isolate vertices from a small base and from a
	// 900-row base with an empty row of its own every 37th row, spanning
	// several 256-row chunks. The line key under relabel N is carried
	// through PatcherFor at s = 1..3 and checked after every step. The
	// longer chains on the small base cross the pending-build bound, so
	// later steps compose onto a base the chain built.
	small := gen.Zipf(gen.ZipfConfig{Seed: 21, NumVertices: 40, NumEdges: 50, MeanEdgeSize: 3, MaxEdgeSize: 6})
	edges := gen.Zipf(gen.ZipfConfig{Seed: 22, NumVertices: 600, NumEdges: 900, MeanEdgeSize: 3, MaxEdgeSize: 6}).EdgeSlices()
	for e := 0; e < len(edges); e += 37 {
		edges[e] = nil
	}
	large := hg.FromEdgeSlices(edges, 600)
	cfg := exactCfg(hg.RelabelNone)
	crossed := false
	for k := 1; k <= 8; k++ {
		for name, base := range map[string]*hg.Hypergraph{"small": small, "large": large} {
			rng := rand.New(rand.NewSource(int64(k)))
			v, h := hg.NewVersion(base, nil), base
			cur := make(map[int]*core.PipelineResult)
			for s := 1; s <= 3; s++ {
				cur[s] = pipelineAt(t, h, s, cfg)
			}
			for step := 0; step < k; step++ {
				d := isolatingDelta(rng, h, step)
				nv, err := Compose(v, d)
				if err != nil {
					t.Fatal(err)
				}
				crossed = crossed || !nv.Pending()
				newH, err := Apply(h, d)
				if err != nil {
					t.Fatal(err)
				}
				p := PatcherFor(v, nv, d)
				for s := 1; s <= 3; s++ {
					a := KeyAttrs{S: s, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
					cur[s] = carry(t, fmt.Sprintf("composed/%s/k=%d/step=%d/s=%d", name, k, step, s), p, a, cur[s], pipelineAt(t, newH, s, cfg))
				}
				v, h = nv, newH
			}
		}
	}
	if !crossed {
		t.Fatal("no chain crossed the pending-build bound")
	}
}

// TestPatchUpgradesCompactedSqueezeMap: a projection cached by a build
// that compacted empty rows under relabel N — its squeeze map holds
// compacted working IDs, its HyperedgeIDs input IDs — can come back
// through the spill tier. Patched, it must equal a recompute, squeeze
// map included: the patcher reads node positions from HyperedgeIDs,
// never from the squeeze map.
func TestPatchUpgradesCompactedSqueezeMap(t *testing.T) {
	base, err := Apply(testBases(t)["zipf"], &Delta{Deletes: []uint32{0, 5, 40}})
	if err != nil {
		t.Fatal(err)
	}
	pre := hg.Preprocess(base, hg.RelabelNone)
	cfg := exactCfg(hg.RelabelNone)
	for s := 1; s <= 3; s++ {
		out, err := core.RunBatch(context.Background(), pre.H, []int{s}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		old := out[s]
		for node, w := range old.HyperedgeIDs {
			old.HyperedgeIDs[node] = pre.EdgeOrig[w]
		}
		if _, _, _, orig := old.Graph.CSR(); reflect.DeepEqual(orig, old.HyperedgeIDs) {
			t.Fatalf("s=%d: the cached squeeze map is not compacted", s)
		}
		for seed := int64(0); seed < 3; seed++ {
			d := randomDelta(rand.New(rand.NewSource(seed)), base)
			newH, err := Apply(base, d)
			if err != nil {
				t.Fatal(err)
			}
			a := KeyAttrs{S: s, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
			res, err := NewPatcher(base, newH, d).Patch(old, a)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("upgrade/s=%d/seed=%d", s, seed), res, pipelineAt(t, newH, s, cfg))
		}
	}
}

// TestPatchWorkIsLocal guards the O(delta) write path without a clock:
// Apply and a line-orientation Patch make the same number of
// allocations on two bases whose edge counts differ 100×, so neither
// grows, rebuilds or re-sorts anything in proportion to the dataset,
// and a Patch allocates the same bytes on two projections with the
// same nodes and 10× the edges, so it writes no rows, and on two
// projections with the same delta frontier and 10× the nodes, so it
// holds no array of the projection's nodes.
func TestPatchWorkIsLocal(t *testing.T) {
	allocs := func(numEdges int) (apply, patch float64) {
		base := gen.Zipf(gen.ZipfConfig{
			Seed: 5, NumVertices: 4 * numEdges, NumEdges: numEdges, MeanEdgeSize: 4, MaxEdgeSize: 8,
		})
		victim := uint32(0)
		for base.EdgeSize(victim) < 2 {
			victim++
		}
		ins := append([]uint32(nil), base.EdgeVertices(victim)[:2]...)
		d := &Delta{Inserts: [][]uint32{ins}, Deletes: []uint32{victim}}
		newH, err := Apply(base, d)
		if err != nil {
			t.Fatal(err)
		}
		apply = testing.AllocsPerRun(20, func() {
			if _, err := Apply(base, d); err != nil {
				t.Fatal(err)
			}
		})
		a := KeyAttrs{S: 1, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
		old := pipelineAt(t, base, a.S, exactCfg(a.Relabel))
		p := NewPatcher(base, newH, d)
		patch = testing.AllocsPerRun(20, func() {
			if _, err := p.Patch(old, a); err != nil {
				t.Fatal(err)
			}
		})
		return apply, patch
	}
	smallApply, smallPatch := allocs(60)
	bigApply, bigPatch := allocs(6000)
	if smallApply != bigApply {
		t.Errorf("Apply: %v allocations at 60 hyperedges, %v at 6000", smallApply, bigApply)
	}
	if smallPatch != bigPatch {
		t.Errorf("Patch: %v allocations at 60 hyperedges, %v at 6000", smallPatch, bigPatch)
	}

	// Bytes, at equal node count: a patch writes no rows, so a projection
	// with 10× the edges costs it nothing more.
	sparseEdges, sparseBytes := patchBytes(t, 2, 1320)
	denseEdges, denseBytes := patchBytes(t, 12, 1320)
	if denseEdges < 10*sparseEdges {
		t.Fatalf("dense projection has %d edges, sparse %d: not 10×", denseEdges, sparseEdges)
	}
	if sparseBytes != denseBytes {
		t.Errorf("Patch: %d bytes allocated on %d edges, %d bytes on %d (same node count)",
			sparseBytes, sparseEdges, denseBytes, denseEdges)
	}

	// Bytes, at 10× the nodes and the same frontier: a patch holds no
	// array of its nodes, neither of its IDs nor of its degrees.
	if _, wideBytes := patchBytes(t, 2, 10*1320); wideBytes != sparseBytes {
		t.Errorf("Patch: %d bytes allocated on %d nodes, %d bytes on %d (same delta frontier)",
			sparseBytes, 1320+3, wideBytes, 10*1320+3)
	}
}

// patchBytes builds a base whose s = 1 line projection has ballast + 3
// nodes — ballast two-vertex hyperedges in groups of group sharing a hub
// vertex, so each group is a clique, plus a three-hyperedge path — and returns
// the projection's edge count and the bytes one line Patch allocates
// for a delta on the path alone (the fewest over five rounds of 20).
func patchBytes(t *testing.T, group, ballast int) (edges int, bytes uint64) {
	t.Helper()
	hubs := ballast / group
	var hes [][]uint32
	for i := 0; i < ballast; i++ {
		hes = append(hes, []uint32{uint32(i / group), uint32(hubs + i)})
	}
	a0, b0, c0, d0 := uint32(hubs+ballast), uint32(hubs+ballast+1), uint32(hubs+ballast+2), uint32(hubs+ballast+3)
	hes = append(hes, []uint32{a0, b0}, []uint32{b0, c0}, []uint32{c0, d0})
	base := hg.FromEdgeSlices(hes, int(d0)+1)
	d := &Delta{Inserts: [][]uint32{{a0, c0}}, Deletes: []uint32{uint32(ballast)}}
	newH, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	a := KeyAttrs{S: 1, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
	old := pipelineAt(t, base, a.S, exactCfg(a.Relabel))
	if old.Graph.NumNodes() != ballast+3 {
		t.Fatalf("group %d: %d nodes, want %d", group, old.Graph.NumNodes(), ballast+3)
	}
	p := NewPatcher(base, newH, d)
	patch := func() {
		if _, err := p.Patch(old, a); err != nil {
			t.Fatal(err)
		}
	}
	patch() // derives the shared per-delta state
	return old.Graph.NumEdges(), fewestBytes(patch)
}

// fewestBytes returns the bytes one call of f allocates: the fewest over
// five rounds of 20 calls.
func fewestBytes(f func()) uint64 {
	bytes := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/20)
	}
	return bytes
}

// TestMigratableRespectsOrderStability pins the migration rules: clique
// keys under a by-degree relabel are never migrated (vertex degrees
// change), line keys migrate at s above the frontier bound under any
// relabel (hyperedge sizes do not change).
func TestMigratableRespectsOrderStability(t *testing.T) {
	base := paperExample()
	d := &Delta{Inserts: [][]uint32{{4, 5}}}
	newH, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPatcher(base, newH, d)
	high := p.AffectedS(true) + p.AffectedS(false) + 1
	attrs := func(dual bool, relabel hg.RelabelOrder) KeyAttrs {
		return KeyAttrs{Dual: dual, S: high, Exact: true, Relabel: relabel, Squeeze: true}
	}
	if !p.Migratable(attrs(false, hg.RelabelDescending)) {
		t.Error("line key above the frontier under relabel D should migrate")
	}
	if p.Migratable(attrs(true, hg.RelabelDescending)) {
		t.Error("clique key under relabel D must not migrate")
	}
	if !p.Migratable(attrs(true, hg.RelabelNone)) {
		t.Error("unrelabeled clique key above the frontier should migrate")
	}
	low := KeyAttrs{Dual: false, S: 1, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
	if p.Migratable(low) {
		t.Error("s=1 is inside every frontier; must not migrate")
	}
	toplexed := attrs(false, hg.RelabelNone)
	toplexed.Toplex = true
	if p.Migratable(toplexed) {
		t.Error("toplex keys must never migrate")
	}
	unsqueezed := attrs(false, hg.RelabelNone)
	unsqueezed.Squeeze = false
	if p.Migratable(unsqueezed) {
		t.Error("unsqueezed keys must never migrate")
	}
}

// fuzzCase decodes fuzz bytes into a small base hypergraph and a delta
// against it. Byte 0 picks the vertex count in 1..8; the bytes up to the
// first 0xFF are the base's hyperedges (a byte with the top bit set
// closes the current one, any other adds vertex b mod n to it; at most
// 16 hyperedges), and the bytes after it are the delta: 0xC0..0xFE
// deletes hyperedge b−0xC0 mod m, 0x80..0xBF closes the current insert,
// and any other byte adds vertex b mod (n+2) to it — up to two vertex
// IDs past the base, which Normalize admits only within its growth
// bound. Empty hyperedges stay in the base (they are tombstones to
// patch around); empty inserts and deletes of empty rows are skipped.
func fuzzCase(data []byte) (*hg.Hypergraph, *Delta) {
	if len(data) == 0 {
		return hg.FromEdgeSlices(nil, 1), &Delta{}
	}
	n := 1 + int(data[0]%8)
	rest := data[1:]
	edges := [][]uint32{nil}
	for len(rest) > 0 && rest[0] != 0xFF {
		b := rest[0]
		rest = rest[1:]
		switch {
		case b&0x80 == 0:
			edges[len(edges)-1] = append(edges[len(edges)-1], uint32(int(b)%n))
		case len(edges) < 16:
			edges = append(edges, nil)
		}
	}
	base := hg.FromEdgeSlices(edges, n)
	d := &Delta{}
	var ins []uint32
	flush := func() {
		if len(ins) > 0 && len(d.Inserts) < 8 {
			d.Inserts = append(d.Inserts, ins)
		}
		ins = nil
	}
	for _, b := range rest[min(1, len(rest)):] {
		switch {
		case b >= 0xC0:
			if e := uint32(int(b-0xC0) % base.NumEdges()); base.EdgeSize(e) > 0 {
				d.Deletes = append(d.Deletes, e)
			}
		case b >= 0x80:
			flush()
		default:
			ins = append(ins, uint32(int(b)%(n+2)))
		}
	}
	flush()
	return base, d
}

// FuzzPatchMatchesRecompute is the differential target for the
// incremental write path: on any decodable base and delta, patching the
// line orientation under relabel N at s in 1..4 equals the recompute on
// the post-delta hypergraph, Plan patches no clique key and no key
// under A or D, and migration is only ever claimed for keys that serve
// the same answer unchanged.
func FuzzPatchMatchesRecompute(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 0x80, 1, 2, 3, 0x80, 0, 1, 2, 3, 4, 0x80, 4, 5, 0xFF, 0xC1, 2, 3, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		base, d := fuzzCase(data)
		if d.Normalize(base) != nil {
			return
		}
		checkPatch(t, "fuzz", base, d, 4)
	})
}
