package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/graph"
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

// TestPatchViewChainMatchesRecompute chains deltas that delete the
// lowest live hyperedges — renumbering every node above them — and
// insert new ones, reading the result at random points in the chain.
// After every patch, before any read, the patched result must answer
// like a recompute through its pending rewrite: node and edge counts,
// every node's input ID and degree, and the rows the rewrite builds,
// run apart from the result so its own rows stay unbuilt. A read then
// expands the IDs, builds the rows, or does neither, and the chain
// goes on from that result.
func TestPatchViewChainMatchesRecompute(t *testing.T) {
	cfg := exactCfg(hg.RelabelNone)
	for s := 1; s <= 3; s++ {
		for seed := int64(0); seed < 4; seed++ {
			label := fmt.Sprintf("s=%d/seed=%d", s, seed)
			rng := rand.New(rand.NewSource(seed))
			a := KeyAttrs{S: s, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
			h := deferredBase()
			cur := pipelineAt(t, h, s, cfg)
			for step := 0; step < 12; step++ {
				d := lowDelta(rng, h)
				newH, err := Apply(h, d)
				if err != nil {
					t.Fatal(err)
				}
				if cur, err = NewPatcher(h, newH, d).Patch(cur, a); err != nil {
					t.Fatalf("%s: step %d: %v", label, step, err)
				}
				h = newH
				want := pipelineAt(t, h, s, cfg)
				sameView(t, fmt.Sprintf("%s/step=%d", label, step), cur, want)
				switch rng.Intn(3) {
				case 0:
					if !slices.Equal(cur.IDs(), want.IDs()) {
						t.Fatalf("%s: step %d: expanded IDs differ from recompute", label, step)
					}
				case 1:
					sameResult(t, fmt.Sprintf("%s/step=%d", label, step), cur, want)
				}
			}
		}
	}
}

// lowDelta deletes the one to three lowest non-empty hyperedges of h and
// inserts one or two hyperedges of two or three random vertices.
func lowDelta(rng *rand.Rand, h *hg.Hypergraph) *Delta {
	d := &Delta{}
	for e, n := uint32(0), 1+rng.Intn(3); int(e) < h.NumEdges() && len(d.Deletes) < n; e++ {
		if h.EdgeSize(e) > 0 {
			d.Deletes = append(d.Deletes, e)
		}
	}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		var vs []uint32
		for n := 2 + rng.Intn(2); len(vs) < n; {
			if v := uint32(rng.Intn(h.NumVertices())); !slices.Contains(vs, v) {
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		d.Inserts = append(d.Inserts, vs)
	}
	return d
}

// sameView asserts that a patched result answers as want without
// building its rows or expanding its IDs: counts, and every node's
// input ID and degree, from the result; rows, when they are pending,
// from a Rewrite of the pending rewrite run apart from the result.
func sameView(t *testing.T, label string, got, want *core.PipelineResult) {
	t.Helper()
	g := got.Graph
	if g.NumNodes() != want.Graph.NumNodes() || g.NumEdges() != want.Graph.NumEdges() || !g.Squeezed() {
		t.Fatalf("%s: %d nodes, %d edges (squeezed %v); recompute %d, %d", label,
			g.NumNodes(), g.NumEdges(), g.Squeezed(), want.Graph.NumNodes(), want.Graph.NumEdges())
	}
	for x := uint32(0); int(x) < g.NumNodes(); x++ {
		if g.OrigID(x) != want.HyperedgeIDs[x] || g.Degree(x) != want.Graph.Degree(x) {
			t.Fatalf("%s: node %d reads hyperedge %d, degree %d; recompute %d, %d", label, x,
				g.OrigID(x), g.Degree(x), want.HyperedgeIDs[x], want.Graph.Degree(x))
		}
	}
	p := g.Pending()
	if p == nil {
		return
	}
	rows, err := graph.Rewrite(p.Base, p.Remap(), g.NumNodes(), p.Add, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	gOff, gAdj, gWgt, _ := rows.CSR()
	wOff, wAdj, wWgt, _ := want.Graph.CSR()
	if !reflect.DeepEqual(gOff, wOff) || !reflect.DeepEqual(gAdj, wAdj) || !reflect.DeepEqual(gWgt, wWgt) {
		t.Fatalf("%s: the pending rewrite's rows differ from recompute", label)
	}
	if g.Pending() != p {
		t.Fatalf("%s: reading the view built the rows", label)
	}
}

// TestPatchedViewReadersResolveOnce: concurrent first readers of a
// patched result — of its IDs, whole or node by node, of its degrees
// and of its rows — expand the IDs once, into the one array the built
// rows hold as their squeeze map, build the rows once, and each reads a
// recompute's answer. Run under -race.
func TestPatchedViewReadersResolveOnce(t *testing.T) {
	base := deferredBase()
	d := smallDelta(rand.New(rand.NewSource(3)), base)
	newH, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	a := KeyAttrs{S: 1, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
	p := NewPatcher(base, newH, d)
	var builds atomic.Int64
	p.OnMaterialize = func() { builds.Add(1) }
	res, err := p.Patch(pipelineAt(t, base, a.S, exactCfg(a.Relabel)), a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Pending() == nil || res.HyperedgeIDs != nil {
		t.Fatal("the patch built its rows or its IDs; want both read through the rewrite")
	}
	want := pipelineAt(t, newH, a.S, exactCfg(a.Relabel))
	ids := make([][]uint32, 16)
	wrong := make([]bool, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 4 {
			case 0:
				ids[i] = res.IDs()
			case 1:
				for x := uint32(0); int(x) < want.Graph.NumNodes(); x++ {
					wrong[i] = wrong[i] || res.Graph.Degree(x) != want.Graph.Degree(x)
				}
			case 2:
				for x := uint32(0); int(x) < want.Graph.NumNodes(); x++ {
					wrong[i] = wrong[i] || res.Graph.OrigID(x) != want.HyperedgeIDs[x]
				}
			default:
				res.Graph.Neighbors(0)
				ids[i] = res.IDs()
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("concurrent readers built the rows %d times, want once", n)
	}
	_, _, _, orig := res.Graph.CSR()
	for i, got := range ids {
		if wrong[i] {
			t.Fatalf("reader %d read a degree or an ID that differs from recompute", i)
		}
		if got != nil && (!slices.Equal(got, want.HyperedgeIDs) || unsafe.SliceData(got) != unsafe.SliceData(orig)) {
			t.Fatalf("reader %d: IDs %p, want the recompute's, in the built squeeze map %p", i, got, orig)
		}
	}
	sameResult(t, "concurrent readers", res, want)
}
