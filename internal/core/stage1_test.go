package core

import (
	"context"
	"reflect"
	"testing"

	"hyperline/internal/hg"
)

// preprocessFirst is the reference for Stage 1: it always runs
// hg.Preprocess, runs Stages 2-4 on the compacted hypergraph (whose
// working order is the identity), and maps the node labels back to h's
// hyperedge IDs.
func preprocessFirst(t testing.TB, h *hg.Hypergraph, sValues []int, cfg PipelineConfig) map[int]*PipelineResult {
	t.Helper()
	pre := hg.Preprocess(h, cfg.Core.Relabel)
	rcfg := cfg
	rcfg.Core.Relabel = hg.RelabelNone
	out, err := RunBatch(context.Background(), pre.H, sValues, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out {
		for node, id := range r.HyperedgeIDs {
			r.HyperedgeIDs[node] = pre.EdgeOrig[id]
		}
		r.Plan.Relabel = cfg.Core.Relabel.String()
	}
	return out
}

// stage1Configs is every Stage-1/2/4 knob combination the fast path
// must agree under: relabel N/A/D × toplex × squeeze.
func stage1Configs() []PipelineConfig {
	var cfgs []PipelineConfig
	for _, relabel := range []hg.RelabelOrder{hg.RelabelNone, hg.RelabelAscending, hg.RelabelDescending} {
		for _, top := range []ToplexMode{ToplexOff, ToplexOn} {
			for _, noSqueeze := range []bool{false, true} {
				cfgs = append(cfgs, PipelineConfig{
					Core:      Config{Relabel: relabel, Workers: 2},
					Toplex:    top,
					NoSqueeze: noSqueeze,
				})
			}
		}
	}
	return cfgs
}

// checkStage1Agrees requires RunBatch on h to equal the Preprocess-first
// reference in every output field: graph CSR, node labels, edge and
// wedge counts, and plan. Under relabel N with squeezing and toplex off
// the squeeze map holds h's IDs, so the reference's is mapped to them.
// Single-s batches run Algorithm 2; the three-value batch runs the
// ensemble.
func checkStage1Agrees(t *testing.T, name string, h *hg.Hypergraph, s int) {
	t.Helper()
	for _, cfg := range stage1Configs() {
		for _, sValues := range [][]int{{s}, {s, s + 1, 1}} {
			got, err := RunBatch(context.Background(), h, sValues, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := preprocessFirst(t, h, sValues, cfg)
			for _, si := range DistinctS(sValues) {
				g, w := got[si], want[si]
				tag := func(what string) {
					t.Helper()
					t.Fatalf("%s relabel=%s toplex=%v noSqueeze=%v s=%v at %d: %s differs from the Preprocess-first reference",
						name, cfg.Core.Relabel, cfg.Toplex, cfg.NoSqueeze, sValues, si, what)
				}
				gOff, gAdj, gWgt, gOrig := g.Graph.CSR()
				wOff, wAdj, wWgt, wOrig := w.Graph.CSR()
				if cfg.Core.Relabel == hg.RelabelNone && !cfg.NoSqueeze && !cfg.Toplex.Enabled() {
					// Under N with squeezing the working IDs are h's own.
					edgeOrig := hg.Preprocess(h, hg.RelabelNone).EdgeOrig
					mapped := make([]uint32, len(wOrig))
					for node, id := range wOrig {
						mapped[node] = edgeOrig[id]
					}
					wOrig = mapped
				}
				if g.Graph.NumNodes() != w.Graph.NumNodes() || !reflect.DeepEqual(gOff, wOff) ||
					!reflect.DeepEqual(gAdj, wAdj) || !reflect.DeepEqual(gWgt, wWgt) || !reflect.DeepEqual(gOrig, wOrig) {
					tag("graph CSR")
				}
				if !reflect.DeepEqual(g.HyperedgeIDs, w.HyperedgeIDs) {
					tag("HyperedgeIDs")
				}
				if g.Stats.Edges != w.Stats.Edges || g.Stats.Wedges != w.Stats.Wedges {
					tag("Stats")
				}
				if g.Plan != w.Plan {
					tag("Plan")
				}
			}
		}
	}
}

// TestStage1FastPath: Stage 1 aliases the input exactly under relabel N
// with squeezing or when its working order is the identity, and
// RunBatch is byte-identical to running hg.Preprocess first under every
// relabel, toplex and squeeze setting, in both orientations.
func TestStage1FastPath(t *testing.T) {
	inputs := []struct {
		name string
		h    *hg.Hypergraph
	}{
		// Vertices 2, 4, 6, 8, 10, 12 and 13 are isolated; sizes 3 3 5 2 2
		// are in neither size order.
		{"isolated", hg.FromEdgeSlices([][]uint32{{1, 3, 5}, {3, 5, 7}, {1, 3, 5, 7, 9}, {9, 11}, {1, 11}}, 14)},
		{"empty-edge", hg.FromEdgeSlices([][]uint32{{1, 3, 5}, {}, {3, 5, 7}, {1, 3, 5, 7, 9}, {9, 11}}, 12)},
		// Equal sizes: every order is the identity; vertex 5 is isolated.
		{"equal-sizes", hg.FromEdgeSlices([][]uint32{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 2, 4}}, 6)},
		{"paper", paperExample()},
	}
	// sortedBy reports whether h's row sizes already follow relabel.
	sortedBy := func(h *hg.Hypergraph, relabel hg.RelabelOrder) bool {
		for e := 1; e < h.NumEdges(); e++ {
			a, b := h.EdgeSize(uint32(e-1)), h.EdgeSize(uint32(e))
			if (relabel == hg.RelabelAscending && a > b) || (relabel == hg.RelabelDescending && a < b) {
				return false
			}
		}
		return true
	}
	for _, in := range inputs {
		for _, orient := range []struct {
			name string
			h    *hg.Hypergraph
		}{{"line", in.h}, {"dual", in.h.Dual()}} {
			h, name := orient.h, in.name+"/"+orient.name
			hasEmpty := false
			for e := 0; e < h.NumEdges(); e++ {
				hasEmpty = hasEmpty || h.EdgeSize(uint32(e)) == 0
			}
			for _, cfg := range stage1Configs() {
				if cfg.Toplex.Enabled() {
					continue // Stage 2 replaces the working hypergraph
				}
				p := prepare(h, cfg)
				squeezedN := cfg.Core.Relabel == hg.RelabelNone && !cfg.NoSqueeze
				if want := squeezedN || (!hasEmpty && sortedBy(h, cfg.Core.Relabel)); (p.work == h) != want {
					t.Fatalf("%s relabel=%s: prepare aliased the input = %v, want %v", name, cfg.Core.Relabel, p.work == h, want)
				}
			}
			for s := 1; s <= 3; s++ {
				checkStage1Agrees(t, name, h, s)
			}
		}
	}
}
