package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hyperline/internal/hg"
)

// weightedEdges renders a pipeline result as a deterministic string of
// weighted edges in original-hyperedge-ID space — the byte-identity
// probe of the knob-equivalence test.
func weightedEdges(res *PipelineResult) string {
	lines := make([]string, 0, len(res.Graph.Edges()))
	for _, e := range res.Graph.Edges() {
		u, v := res.HyperedgeID(e.U), res.HyperedgeID(e.V)
		if u > v {
			u, v = v, u
		}
		lines = append(lines, fmt.Sprintf("%d-%d:%d", u, v, e.W))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestKnobEquivalenceMatrix: within one toplex setting, every
// exact-weight strategy × relabel order × batch shape produces the
// identical weighted s-line graph in original-ID space.
func TestKnobEquivalenceMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	h := randomHypergraph(r, 45, 70, 8)
	sweep := []int{2, 3}
	algos := []Algorithm{AlgoAuto, AlgoHashmap, AlgoEnsemble}
	relabels := []hg.RelabelOrder{hg.RelabelNone, hg.RelabelAscending, hg.RelabelDescending}

	for _, mode := range []ToplexMode{ToplexOff, ToplexOn} {
		var want map[int]string
		for _, algo := range algos {
			for _, order := range relabels {
				cfg := PipelineConfig{
					Core:   Config{Algorithm: algo, Relabel: order},
					Toplex: mode,
				}
				results, err := RunBatch(context.Background(), h, sweep, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := map[int]string{}
				for s, res := range results {
					got[s] = weightedEdges(res)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("toplex=%v algo=%v relabel=%v: output differs from baseline", mode, algo, order)
				}
			}
		}

		// Single-s runs of the same matrix agree with the batch.
		for _, algo := range algos {
			cfg := PipelineConfig{Core: Config{Algorithm: algo}, Toplex: mode}
			if weightedEdges(pipelineAt(t, h, 2, cfg)) != want[2] {
				t.Fatalf("toplex=%v algo=%v single-s: output differs from batch", mode, algo)
			}
		}
	}
}
