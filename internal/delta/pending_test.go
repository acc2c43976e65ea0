package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// sameReads asserts that a pending version reads exactly as the flat
// hypergraph want: sizes, every row of both orientations, row lengths,
// maxima, overlap counts, the working-ID order under every relabel,
// and the containment probe.
func sameReads(t *testing.T, label string, got *hg.Version, want *hg.Hypergraph) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() || got.NumVertices() != want.NumVertices() || got.Incidences() != want.Incidences() {
		t.Fatalf("%s: %d edges, %d vertices, %d incidences; want %d, %d, %d", label,
			got.NumEdges(), got.NumVertices(), got.Incidences(), want.NumEdges(), want.NumVertices(), want.Incidences())
	}
	for e := uint32(0); int(e) < want.NumEdges(); e++ {
		if !slices.Equal(got.EdgeVertices(e), want.EdgeVertices(e)) || got.EdgeSize(e) != want.EdgeSize(e) {
			t.Fatalf("%s: hyperedge %d reads %v, want %v", label, e, got.EdgeVertices(e), want.EdgeVertices(e))
		}
	}
	for v := uint32(0); int(v) < want.NumVertices(); v++ {
		if !slices.Equal(got.VertexEdges(v), want.VertexEdges(v)) || got.VertexDegree(v) != want.VertexDegree(v) {
			t.Fatalf("%s: vertex %d reads %v, want %v", label, v, got.VertexEdges(v), want.VertexEdges(v))
		}
	}
	if got.MaxEdgeSize() != want.MaxEdgeSize() || got.MaxVertexDegree() != want.MaxVertexDegree() {
		t.Fatalf("%s: maxima (%d, %d), want (%d, %d)", label,
			got.MaxEdgeSize(), got.MaxVertexDegree(), want.MaxEdgeSize(), want.MaxVertexDegree())
	}
	for e := uint32(0); int(e) < want.NumEdges(); e += 5 {
		if !reflect.DeepEqual(core.OverlapCounts(got, e), core.OverlapCounts(want, e)) {
			t.Fatalf("%s: overlap counts of hyperedge %d differ", label, e)
		}
	}
	for _, order := range []hg.RelabelOrder{hg.RelabelNone, hg.RelabelAscending, hg.RelabelDescending} {
		if !slices.Equal(hg.EdgeOrder(got, order), hg.EdgeOrder(want, order)) {
			t.Fatalf("%s: working order %s differs", label, order)
		}
	}
}

// sameCSR asserts byte identity of two hypergraphs' CSR arrays.
func sameCSR(t *testing.T, label string, got, want *hg.Hypergraph) {
	t.Helper()
	gEOff, gEAdj, gVOff, gVAdj := got.CSR()
	wEOff, wEAdj, wVOff, wVAdj := want.CSR()
	if !reflect.DeepEqual(gEOff, wEOff) || !reflect.DeepEqual(gEAdj, wEAdj) ||
		!reflect.DeepEqual(gVOff, wVOff) || !reflect.DeepEqual(gVAdj, wVAdj) {
		t.Fatalf("%s: built CSR differs", label)
	}
}

// rebuild constructs the hypergraph a delta chain must produce from
// edge lists, independently of the row edits under test.
func rebuild(base *hg.Hypergraph, ds []*Delta) *hg.Hypergraph {
	edges := base.EdgeSlices()
	n := base.NumVertices()
	for _, d := range ds {
		for _, e := range d.Deletes {
			edges[e] = nil
		}
		for _, vs := range d.Inserts {
			edges = append(edges, vs)
			n = max(n, int(vs[len(vs)-1])+1)
		}
	}
	return hg.FromEdgeSlices(edges, n)
}

// TestPendingVersionChain chains k = 1..8 random deltas — deletes,
// inserts and new vertices — through Compose and, in step, through the
// eager Apply. On a base large enough that no step passes the pending
// bound, every step must read (line and Dual view) exactly as the
// eager hypergraph with nothing built; the first build must then be
// byte-identical to the chained Apply and to a rebuild from edge lists,
// and later reads build nothing more. The base spans several chunks of
// rewritten rows in both orientations.
func TestPendingVersionChain(t *testing.T) {
	// Uniform rows, so no hub vertex's row passes the bound on its own.
	r := rand.New(rand.NewSource(3))
	rows := make([][]uint32, 1200)
	for e := range rows {
		for n := 3 + r.Intn(4); len(rows[e]) < n; {
			if v := uint32(r.Intn(1500)); !slices.Contains(rows[e], v) {
				rows[e] = append(rows[e], v)
			}
		}
	}
	base := hg.FromEdgeSlices(rows, 1500)
	for k := 1; k <= 8; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		builds := 0
		v := hg.NewVersion(base, func() { builds++ })
		h := base
		var ds []*Delta
		for step := 1; step <= k; step++ {
			label := fmt.Sprintf("k=%d/step=%d", k, step)
			d := randomDelta(rng, h)
			var err error
			if v, err = Compose(v, d); err != nil {
				t.Fatal(err)
			}
			if h, err = Apply(h, d); err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
			if builds != 0 || !v.Pending() {
				t.Fatalf("%s: the chain built %d times, want 0", label, builds)
			}
			sameReads(t, label, v, h)
			sameReads(t, label+"/dual", v.Dual(), h.Dual())
		}
		if builds != 0 {
			t.Fatalf("k=%d: reads built %d times, want 0", k, builds)
		}
		sameCSR(t, fmt.Sprintf("k=%d: build vs chained Apply", k), v.Dual().Flat().Dual(), h)
		sameCSR(t, fmt.Sprintf("k=%d: build vs rebuild", k), v.Flat(), rebuild(base, ds))
		if builds != 1 || v.Pending() {
			t.Fatalf("k=%d: %d builds after two flat reads, want 1", k, builds)
		}
	}
}

// TestPendingVersionThreshold: on a base so small that the second
// delta's pending rows pass 1/deferFraction of its incidences, that
// Compose builds, the one after it composes pending again onto the
// built rows, and the end of the chain still equals the chained Apply.
func TestPendingVersionThreshold(t *testing.T) {
	var edges [][]uint32
	for e := uint32(0); e < 40; e++ {
		edges = append(edges, []uint32{e, e + 1, e + 2})
	}
	base := hg.FromEdgeSlices(edges, 42)
	builds := 0
	v, h := hg.NewVersion(base, func() { builds++ }), base
	for step, c := range []struct {
		d      *Delta
		builds int
	}{
		{&Delta{Deletes: []uint32{3}}, 0},
		{&Delta{Inserts: [][]uint32{{0, 10, 20, 30, 40, 42}}, Deletes: []uint32{20}}, 1},
		{&Delta{Deletes: []uint32{7}}, 1},
	} {
		var err error
		if v, err = Compose(v, c.d); err != nil {
			t.Fatal(err)
		}
		if h, err = Apply(h, c.d); err != nil {
			t.Fatal(err)
		}
		if builds != c.builds {
			t.Fatalf("step %d: %d builds, want %d (pending %d of base %d)", step, builds, c.builds,
				v.PendingIncidences(), v.BaseIncidences())
		}
		sameReads(t, fmt.Sprintf("step %d", step), v, h)
	}
	if !v.Pending() {
		t.Fatal("the delta after the build did not compose pending")
	}
	sameCSR(t, "threshold chain", v.Flat(), h)
}

// TestCarriedStatsMatchCompute carries the registry's statistics along
// delta chains — random ones, and ones that delete the hyperedge that
// held ∆e and lower the degree of the vertex that held ∆v — and
// requires at every step the struct ComputeStats gives on the built
// version.
func TestCarriedStatsMatchCompute(t *testing.T) {
	compute := func(h *hg.Hypergraph) hg.Stats { return hg.ComputeStats("g", h) }
	check := func(label string, base *hg.Hypergraph, next func(step int, h *hg.Hypergraph) *Delta, steps int) {
		t.Helper()
		v, h, st := hg.NewVersion(base, nil), base, compute(base)
		for step := 0; step < steps; step++ {
			d := next(step, h)
			nv, err := Compose(v, d)
			if err != nil {
				t.Fatal(err)
			}
			st = CarryStats(st, v, nv, d)
			if h, err = Apply(h, d); err != nil {
				t.Fatal(err)
			}
			if want := compute(h); st != want {
				t.Fatalf("%s: step %d: carried %+v\nwant %+v", label, step, st, want)
			}
			v = nv
		}
	}
	rng := rand.New(rand.NewSource(4))
	check("random", gen.Zipf(gen.ZipfConfig{Seed: 4, NumVertices: 300, NumEdges: 400, MeanEdgeSize: 4, MaxEdgeSize: 9}),
		func(_ int, h *hg.Hypergraph) *Delta { return randomDelta(rng, h) }, 12)

	// Vertex 0 is in hyperedges 0..5 (∆v = 6, then 5, 4, ...) and
	// hyperedge 0 is the largest (∆e = 6, then 5 once it is gone).
	shrink := hg.FromEdgeSlices([][]uint32{
		{0, 1, 2, 3, 4, 5}, {0, 6}, {0, 7}, {0, 8, 9, 10, 11}, {0, 12}, {0, 13}, {1, 2, 3, 4, 5}, {14, 15},
	}, 16)
	lowering := []*Delta{
		{Deletes: []uint32{0}},                            // ∆e 6 → 5, deg(0) 6 → 5
		{Deletes: []uint32{1, 3}},                         // ∆e held by two, one goes; deg(0) → 3
		{Inserts: [][]uint32{{14, 15, 16}}},               // a new vertex; ∆e unchanged
		{Deletes: []uint32{6}, Inserts: [][]uint32{{1}}},  // ∆e 5 → 3
		{Deletes: []uint32{2, 4, 5, 7, 8, 9}},             // deg(0) → 0
		{Inserts: [][]uint32{{0, 1, 2, 3, 4, 5, 6, 7}}},   // ∆e rises again
		{Deletes: []uint32{10}, Inserts: [][]uint32{{3}}}, // ∆e 8 → 1
	}
	check("lowering maxima", shrink, func(step int, _ *hg.Hypergraph) *Delta { return lowering[step] }, len(lowering))
}
