package delta

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// This file is the correctness contract of the incremental patcher: for
// seeded generated hypergraphs × random delta batches × both
// orientations × s = 1..5 × every relabel order, patching a cached
// projection must be byte-identical — Graph CSR, HyperedgeIDs, S — to
// recomputing the projection from scratch on the post-delta hypergraph.
// CI runs this package under -race, so the lazily shared patcher state
// is exercised for data races as well.

// orient projects the hypergraph for one orientation.
func orient(h *hg.Hypergraph, dual bool) *hg.Hypergraph {
	if dual {
		return h.Dual()
	}
	return h
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
	if !reflect.DeepEqual(got.HyperedgeIDs, want.HyperedgeIDs) {
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
	if !reflect.DeepEqual(got.HyperedgeIDs, want.HyperedgeIDs) {
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

// TestPatchEquivalence is the headline property: patch == recompute,
// byte for byte, across bases × deltas × orientations × s × relabel.
func TestPatchEquivalence(t *testing.T) {
	relabels := []hg.RelabelOrder{hg.RelabelNone, hg.RelabelAscending, hg.RelabelDescending}
	for name, base := range testBases(t) {
		for deltaSeed := int64(0); deltaSeed < 3; deltaSeed++ {
			d := randomDelta(rand.New(rand.NewSource(deltaSeed)), base)
			newH, err := Apply(base, d)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", name, deltaSeed, err)
			}
			p := NewPatcher(base, newH, d)
			for _, dual := range []bool{false, true} {
				for _, relabel := range relabels {
					cfg := exactCfg(relabel)
					for s := 1; s <= 5; s++ {
						label := fmt.Sprintf("%s/seed%d/dual=%v/relabel=%s/s=%d", name, deltaSeed, dual, relabel, s)
						old := pipelineAt(t, orient(base, dual), s, cfg)
						fresh := pipelineAt(t, orient(newH, dual), s, cfg)
						a := KeyAttrs{Dual: dual, S: s, Exact: true, Relabel: relabel, Squeeze: true}
						patched, err := p.Patch(old, a)
						if err != nil {
							t.Fatalf("%s: Patch: %v", label, err)
						}
						sameResult(t, label, patched, fresh)
						// Migration soundness: a key the patcher calls
						// unchanged must really be unchanged.
						if p.Migratable(a) {
							sameServed(t, label+" (migrate)", old, fresh)
						}
					}
				}
			}
		}
	}
}

// TestPatchEquivalenceChained patches through a chain of deltas — each
// step reuses the previous step's patched result as its cached input —
// and checks the end state still matches a from-scratch recompute, so
// patching does not accumulate drift across versions.
func TestPatchEquivalenceChained(t *testing.T) {
	base := gen.Zipf(gen.ZipfConfig{
		Seed: 3, NumVertices: 40, NumEdges: 50, MeanEdgeSize: 4, MaxEdgeSize: 8,
	})
	rng := rand.New(rand.NewSource(42))
	for _, dual := range []bool{false, true} {
		cfg := exactCfg(hg.RelabelNone)
		for s := 1; s <= 3; s++ {
			h := base
			cur := pipelineAt(t, orient(h, dual), s, cfg)
			for step := 0; step < 4; step++ {
				d := randomDelta(rng, h)
				newH, err := Apply(h, d)
				if err != nil {
					t.Fatal(err)
				}
				p := NewPatcher(h, newH, d)
				a := KeyAttrs{Dual: dual, S: s, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
				cur, err = p.Patch(cur, a)
				if err != nil {
					t.Fatal(err)
				}
				h = newH
			}
			fresh := pipelineAt(t, orient(h, dual), s, cfg)
			sameResult(t, fmt.Sprintf("chained/dual=%v/s=%d", dual, s), cur, fresh)
		}
	}
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
