package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// smallDelta draws one deletion of a non-empty hyperedge of at most four
// vertices — half the time the newest one, so pairs an earlier step
// added leave again — and one inserted hyperedge of two or three
// existing vertices: a delta whose pending pairs stay far below
// deferFraction of the projections of deferredBase, so a chain of them
// stays deferred.
func smallDelta(rng *rand.Rand, base *hg.Hypergraph) *Delta {
	d := &Delta{}
	newest := uint32(base.NumEdges() - 1)
	if sz := base.EdgeSize(newest); sz > 0 && sz <= 4 && rng.Intn(2) == 0 {
		d.Deletes = []uint32{newest}
	}
	for len(d.Deletes) == 0 {
		e := uint32(rng.Intn(base.NumEdges()))
		if sz := base.EdgeSize(e); sz > 0 && sz <= 4 {
			d.Deletes = []uint32{e}
		}
	}
	seen := make(map[uint32]bool)
	var vs []uint32
	for n := 2 + rng.Intn(2); len(vs) < n; {
		if v := uint32(rng.Intn(base.NumVertices())); !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	d.Inserts = [][]uint32{vs}
	return d
}

// deferredBase is large enough that eight small deltas never pass the
// materialization threshold at s = 1..3.
func deferredBase() *hg.Hypergraph {
	return gen.Zipf(gen.ZipfConfig{
		Seed: 9, NumVertices: 120, NumEdges: 400, MeanEdgeSize: 4, MaxEdgeSize: 8,
	})
}

// TestDeferredChainMatchesRecompute chains k = 1..8 deltas through the
// deferred write path for line keys under relabel N: every step must
// leave the rows unbuilt (no materialization during the chain), and the
// one materialization the first row read makes must be byte-identical
// to RunBatch on the post-chain hypergraph. A second read builds
// nothing. For clique keys and under A and D, Plan must patch no step
// of the same chains.
func TestDeferredChainMatchesRecompute(t *testing.T) {
	base := deferredBase()
	for _, dual := range []bool{false, true} {
		for _, relabel := range relabels {
			cfg := exactCfg(relabel)
			for s := 1; s <= 3; s++ {
				a := KeyAttrs{Dual: dual, S: s, Exact: true, Relabel: relabel, Squeeze: true}
				for k := 1; k <= 8; k++ {
					label := fmt.Sprintf("dual=%v/relabel=%s/s=%d/k=%d", dual, relabel, s, k)
					deferredChain(t, label, base, a, cfg, rand.New(rand.NewSource(int64(10*s+k))), k)
				}
			}
		}
	}
}

// deferredChain runs one chain of TestDeferredChainMatchesRecompute: k
// deltas from base for the key a.
func deferredChain(t *testing.T, label string, base *hg.Hypergraph, a KeyAttrs, cfg core.PipelineConfig, rng *rand.Rand, k int) {
	t.Helper()
	h := base
	cur := pipelineAt(t, orient(h, a.Dual), a.S, cfg)
	builds := 0
	for step := 1; step <= k; step++ {
		d := smallDelta(rng, h)
		newH, err := Apply(h, d)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPatcher(h, newH, d)
		h = newH
		if !patched(a.Dual, a.Relabel) {
			neverPatched(t, fmt.Sprintf("%s: step %d", label, step), p, a)
			continue
		}
		p.OnMaterialize = func() { builds++ }
		if cur, err = p.Patch(cur, a); err != nil {
			t.Fatalf("%s: step %d: %v", label, step, err)
		}
		if cur.Graph.Pending() == nil {
			t.Fatalf("%s: step %d built its rows; want them deferred", label, step)
		}
	}
	if !patched(a.Dual, a.Relabel) {
		return
	}
	if builds != 0 {
		t.Fatalf("%s: %d materializations during the chain, want 0", label, builds)
	}
	fresh := pipelineAt(t, orient(h, a.Dual), a.S, cfg)
	if cur.Graph.NumNodes() != fresh.Graph.NumNodes() || cur.Graph.NumEdges() != fresh.Graph.NumEdges() {
		t.Fatalf("%s: deferred counts %d nodes, %d edges; recompute %d, %d", label,
			cur.Graph.NumNodes(), cur.Graph.NumEdges(), fresh.Graph.NumNodes(), fresh.Graph.NumEdges())
	}
	for x := 0; x < fresh.Graph.NumNodes(); x++ {
		if got, want := cur.Graph.Degree(uint32(x)), fresh.Graph.Degree(uint32(x)); got != want {
			t.Fatalf("%s: deferred degree of node %d is %d, want %d", label, x, got, want)
		}
	}
	if builds != 0 {
		t.Fatalf("%s: counts and degrees built the rows", label)
	}
	sameResult(t, label, cur, fresh)
	sameResult(t, label, cur, fresh)
	if builds != 1 {
		t.Fatalf("%s: %d materializations after two reads, want 1", label, builds)
	}
}

// TestDeferredThresholdBuilds pins the other materialization trigger:
// on a base so small that one insert's pairs pass deferFraction of its
// adjacency, that patch builds its rows inside Patch, the patch after
// it defers again onto those rows as its new base, and the end of the
// chain still equals a recompute.
func TestDeferredThresholdBuilds(t *testing.T) {
	h := hg.FromEdgeSlices([][]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}}, 8)
	cfg := exactCfg(hg.RelabelNone)
	a := KeyAttrs{S: 1, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
	cur := pipelineAt(t, h, 1, cfg)
	for step, c := range []struct {
		d        *Delta
		deferred bool
	}{
		{&Delta{Deletes: []uint32{0}}, true},
		{&Delta{Inserts: [][]uint32{{0, 2, 4, 6}}}, false},
		{&Delta{Deletes: []uint32{3}}, true},
	} {
		newH, err := Apply(h, c.d)
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = NewPatcher(h, newH, c.d).Patch(cur, a); err != nil {
			t.Fatal(err)
		}
		if deferred := cur.Graph.Pending() != nil; deferred != c.deferred {
			t.Fatalf("step %d: deferred = %v, want %v", step, deferred, c.deferred)
		}
		h = newH
	}
	sameResult(t, "threshold chain", cur, pipelineAt(t, h, 1, cfg))
}
