package hg

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Adj returns adj(u, v) = |{e ⊇ {u,v}}|, the number of hyperedges
// containing both vertices.
func (h *Hypergraph) Adj(u, v uint32) int {
	return IntersectSize(h.VertexEdges(u), h.VertexEdges(v))
}

// paperExample builds the hypergraph of Figure 1 of the paper:
// V = {a..f} = {0..5}, E = {1:{a,b,c}, 2:{b,c,d}, 3:{a,b,c,d,e}, 4:{e,f}}
// (edges renumbered 0..3 here).
func paperExample() *Hypergraph {
	return FromEdgeSlices([][]uint32{
		{0, 1, 2},       // 1: a b c
		{1, 2, 3},       // 2: b c d
		{0, 1, 2, 3, 4}, // 3: a b c d e
		{4, 5},          // 4: e f
	}, 6)
}

func TestPaperExampleBasics(t *testing.T) {
	h := paperExample()
	if h.NumVertices() != 6 || h.NumEdges() != 4 {
		t.Fatalf("got %d vertices, %d edges; want 6, 4", h.NumVertices(), h.NumEdges())
	}
	if h.Incidences() != 13 {
		t.Fatalf("incidences = %d, want 13", h.Incidences())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Section II: adj(b,c) = 3 (vertices b=1, c=2).
	if got := h.Adj(1, 2); got != 3 {
		t.Fatalf("adj(b,c) = %d, want 3", got)
	}
	// inc(e1, e2) = |{b,c}| = 2 for edges 1 and 2 (ids 0, 1).
	if got := h.Inc(0, 1); got != 2 {
		t.Fatalf("inc(1,2) = %d, want 2", got)
	}
	// Edge sizes: inc({e}) = |e|.
	wantSizes := []int{3, 3, 5, 2}
	for e, w := range wantSizes {
		if got := h.EdgeSize(uint32(e)); got != w {
			t.Fatalf("|e%d| = %d, want %d", e+1, got, w)
		}
	}
	// Degrees: deg(b)=3 (edges 1,2,3), deg(f)=1.
	if got := h.VertexDegree(1); got != 3 {
		t.Fatalf("deg(b) = %d, want 3", got)
	}
	if got := h.VertexDegree(5); got != 1 {
		t.Fatalf("deg(f) = %d, want 1", got)
	}
	if h.MaxEdgeSize() != 5 || h.MaxVertexDegree() != 3 {
		t.Fatalf("∆e=%d ∆v=%d, want 5, 3", h.MaxEdgeSize(), h.MaxVertexDegree())
	}
}

func TestDualRoundTrip(t *testing.T) {
	h := paperExample()
	d := h.Dual()
	if d.NumVertices() != 4 || d.NumEdges() != 6 {
		t.Fatalf("dual: %d vertices, %d edges; want 4, 6", d.NumVertices(), d.NumEdges())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// v* for vertex b (id 1) must be {e1, e2, e3} = edge ids {0,1,2}.
	if got := d.EdgeVertices(1); !reflect.DeepEqual(got, []uint32{0, 1, 2}) {
		t.Fatalf("dual edge for b = %v, want [0 1 2]", got)
	}
	dd := d.Dual()
	if !reflect.DeepEqual(dd.EdgeSlices(), h.EdgeSlices()) {
		t.Fatal("(H*)* != H")
	}
	// adj in H maps to inc on edges in H*: adj(b,c) == inc over dual
	// hyperedges b*, c*.
	if h.Adj(1, 2) != d.Inc(1, 2) {
		t.Fatal("adjacency/incidence duality violated")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(0)
	b.AddPair(0, 3)
	b.AddPair(0, 3)
	b.AddPair(0, 1)
	h := b.Build()
	if got := h.EdgeVertices(0); !reflect.DeepEqual(got, []uint32{1, 3}) {
		t.Fatalf("edge 0 = %v, want [1 3]", got)
	}
	if h.Incidences() != 2 {
		t.Fatalf("incidences = %d, want 2", h.Incidences())
	}
}

func TestBuilderZeroValue(t *testing.T) {
	var b Builder
	b.AddPair(1, 2)
	h := b.Build()
	if h.NumEdges() != 2 || h.NumVertices() != 3 {
		t.Fatalf("got %d edges, %d vertices; want 2, 3", h.NumEdges(), h.NumVertices())
	}
	if h.EdgeSize(0) != 0 {
		t.Fatal("edge 0 should be empty")
	}
}

func TestBuildWithSizeTooSmall(t *testing.T) {
	b := NewBuilder(0)
	b.AddPair(5, 7)
	if _, err := b.BuildWithSize(3, 3); err == nil {
		t.Fatal("expected error for undersized build")
	}
	if _, err := b.BuildWithSize(6, 8); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestIntersectSize(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want int
	}{
		{nil, nil, 0},
		{[]uint32{1, 2, 3}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, 2},
		{[]uint32{1, 5, 9}, []uint32{2, 6, 10}, 0},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 3},
	}
	for _, c := range cases {
		if got := IntersectSize(c.a, c.b); got != c.want {
			t.Errorf("IntersectSize(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectAtLeast(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5}
	b := []uint32{2, 4, 6, 8}
	for s := 0; s <= 4; s++ {
		want := IntersectSize(a, b) >= s
		if got := IntersectAtLeast(a, b, s); got != want {
			t.Errorf("IntersectAtLeast(s=%d) = %v, want %v", s, got, want)
		}
	}
	if IntersectAtLeast(nil, nil, 1) {
		t.Fatal("empty sets cannot share 1 element")
	}
	if !IntersectAtLeast(nil, nil, 0) {
		t.Fatal("s=0 is always satisfied")
	}
}

func TestIntersectAtLeastProperty(t *testing.T) {
	f := func(xs, ys []uint8, s uint8) bool {
		a := sortedUnique(xs)
		b := sortedUnique(ys)
		want := IntersectSize(a, b) >= int(s%8)
		return IntersectAtLeast(a, b, int(s%8)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sortedUnique(xs []uint8) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, x := range xs {
		seen[uint32(x)] = true
	}
	for x := uint32(0); x < 256; x++ {
		if seen[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestPreprocessDropsEmptyAndIsolated(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1, 3) // vertex 0, 2 isolated; edge 1 empty
	b.AddEdge(2, 3, 5)
	h, err := b.BuildWithSize(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := Preprocess(h, RelabelNone)
	if res.H.NumEdges() != 2 || res.H.NumVertices() != 3 {
		t.Fatalf("got %d edges, %d vertices; want 2, 3", res.H.NumEdges(), res.H.NumVertices())
	}
	if !reflect.DeepEqual(res.EdgeOrig, []uint32{0, 2}) {
		t.Fatalf("EdgeOrig = %v, want [0 2]", res.EdgeOrig)
	}
	if !reflect.DeepEqual(res.VertexOrig, []uint32{1, 3, 5}) {
		t.Fatalf("VertexOrig = %v, want [1 3 5]", res.VertexOrig)
	}
	if err := res.H.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPreprocessRelabelAscending(t *testing.T) {
	h := paperExample()
	res := Preprocess(h, RelabelAscending)
	sizes := make([]int, res.H.NumEdges())
	for e := range sizes {
		sizes[e] = res.H.EdgeSize(uint32(e))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i-1] > sizes[i] {
			t.Fatalf("sizes not ascending: %v", sizes)
		}
	}
	// Edge 4 ({e,f}, size 2) must come first; its original ID is 3.
	if res.EdgeOrig[0] != 3 {
		t.Fatalf("EdgeOrig[0] = %d, want 3", res.EdgeOrig[0])
	}
}

func TestPreprocessRelabelDescending(t *testing.T) {
	h := paperExample()
	res := Preprocess(h, RelabelDescending)
	sizes := make([]int, res.H.NumEdges())
	for e := range sizes {
		sizes[e] = res.H.EdgeSize(uint32(e))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i-1] < sizes[i] {
			t.Fatalf("sizes not descending: %v", sizes)
		}
	}
	if res.EdgeOrig[0] != 2 { // edge 3 (size 5) has ID 2
		t.Fatalf("EdgeOrig[0] = %d, want 2", res.EdgeOrig[0])
	}
}

func TestPreprocessPreservesStructure(t *testing.T) {
	// After relabeling, edge contents (mapped back through EdgeOrig /
	// VertexOrig) must match the original hypergraph.
	h := paperExample()
	for _, order := range []RelabelOrder{RelabelNone, RelabelAscending, RelabelDescending} {
		res := Preprocess(h, order)
		for newE := 0; newE < res.H.NumEdges(); newE++ {
			orig := res.EdgeOrig[newE]
			got := map[uint32]bool{}
			for _, nv := range res.H.EdgeVertices(uint32(newE)) {
				got[res.VertexOrig[nv]] = true
			}
			want := h.EdgeVertices(orig)
			if len(got) != len(want) {
				t.Fatalf("order %v: edge %d size mismatch", order, newE)
			}
			for _, v := range want {
				if !got[v] {
					t.Fatalf("order %v: edge %d missing vertex %d", order, newE, v)
				}
			}
		}
	}
}

func TestPreprocessProperty(t *testing.T) {
	// Preprocess of a random hypergraph is always valid and
	// incidence-count preserving (no empty edges/isolated vertices in
	// random gen with all edges non-empty).
	f := func(seed int64) bool {
		h := randomHypergraph(rand.New(rand.NewSource(seed)), 40, 25)
		for _, order := range []RelabelOrder{RelabelNone, RelabelAscending, RelabelDescending} {
			res := Preprocess(h, order)
			if res.H.Validate() != nil {
				return false
			}
			if res.H.Incidences() != h.Incidences() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPreprocessMatchesReference pins Preprocess to an independently
// built reference — bucket the non-empty edges by size (stable within a
// size), compact the non-isolated vertices, rebuild through
// FromEdgeSlices — on inputs with empty hyperedges, isolated vertices
// and many equal-size edges (where only a stable relabel is
// deterministic). All four CSR arrays and both ID maps must be equal.
func TestPreprocessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n, m := 1+rng.Intn(50), rng.Intn(40)
		edges := make([][]uint32, m)
		for e := range edges {
			if rng.Intn(4) == 0 {
				continue // empty hyperedge
			}
			for v := 0; v < n; v++ {
				// Roughly a third of the vertices end up isolated.
				if v%3 != trial%3 && rng.Intn(n) < 3 {
					edges[e] = append(edges[e], uint32(v))
				}
			}
		}
		h := FromEdgeSlices(edges, n)
		for _, order := range []RelabelOrder{RelabelNone, RelabelAscending, RelabelDescending} {
			wantEdgeOrig := []uint32{}
			for k := 0; k <= n; k++ {
				size := k // ascending; RelabelNone takes every size at once
				if order == RelabelDescending {
					size = n - k
				}
				for e := range edges {
					if len(edges[e]) > 0 && (len(edges[e]) == size || order == RelabelNone) {
						wantEdgeOrig = append(wantEdgeOrig, uint32(e))
					}
				}
				if order == RelabelNone {
					break
				}
			}
			vertexNew := map[uint32]uint32{}
			wantVertexOrig := []uint32{}
			for v := 0; v < n; v++ {
				if h.VertexDegree(uint32(v)) > 0 {
					vertexNew[uint32(v)] = uint32(len(wantVertexOrig))
					wantVertexOrig = append(wantVertexOrig, uint32(v))
				}
			}
			relabeled := make([][]uint32, len(wantEdgeOrig))
			for newE, origE := range wantEdgeOrig {
				for _, v := range edges[origE] {
					relabeled[newE] = append(relabeled[newE], vertexNew[v])
				}
			}
			want := FromEdgeSlices(relabeled, len(wantVertexOrig))

			got := Preprocess(h, order)
			if !reflect.DeepEqual(got.EdgeOrig, wantEdgeOrig) {
				t.Fatalf("trial %d order %v: EdgeOrig = %v, want %v", trial, order, got.EdgeOrig, wantEdgeOrig)
			}
			if !reflect.DeepEqual(got.VertexOrig, wantVertexOrig) {
				t.Fatalf("trial %d order %v: VertexOrig = %v, want %v", trial, order, got.VertexOrig, wantVertexOrig)
			}
			if got.H.NumEdges() != want.NumEdges() || got.H.NumVertices() != want.NumVertices() {
				t.Fatalf("trial %d order %v: shape (%d, %d), want (%d, %d)", trial, order,
					got.H.NumEdges(), got.H.NumVertices(), want.NumEdges(), want.NumVertices())
			}
			gE, gA, gV, gB := got.H.CSR()
			wE, wA, wV, wB := want.CSR()
			if !reflect.DeepEqual(gE, wE) || !reflect.DeepEqual(gA, wA) || !reflect.DeepEqual(gV, wV) || !reflect.DeepEqual(gB, wB) {
				t.Fatalf("trial %d order %v: CSR arrays differ from the reference", trial, order)
			}
		}
	}
}

func randomHypergraph(r *rand.Rand, n, m int) *Hypergraph {
	edges := make([][]uint32, m)
	for e := range edges {
		size := 1 + r.Intn(6)
		seen := map[uint32]bool{}
		for len(seen) < size {
			seen[uint32(r.Intn(n))] = true
		}
		for v := range seen {
			edges[e] = append(edges[e], v)
		}
	}
	return FromEdgeSlices(edges, n)
}

func TestInducedByEdges(t *testing.T) {
	h := paperExample()
	sub, orig := InducedByEdges(h, []uint32{2, 3})
	if sub.NumEdges() != 2 {
		t.Fatalf("induced edges = %d, want 2", sub.NumEdges())
	}
	if !reflect.DeepEqual(orig, []uint32{2, 3}) {
		t.Fatalf("orig = %v, want [2 3]", orig)
	}
	if sub.EdgeSize(0) != 5 || sub.EdgeSize(1) != 2 {
		t.Fatal("induced edge contents wrong")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	h := paperExample()
	s := ComputeStats("example", h)
	if s.NumVertices != 6 || s.NumEdges != 4 || s.Incidences != 13 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.MaxEdgeSize != 5 || s.MaxVertexDegree != 3 {
		t.Fatalf("bad extremes: %+v", s)
	}
	wantAvgV := 13.0 / 6.0
	if s.AvgVertexDegree < wantAvgV-1e-9 || s.AvgVertexDegree > wantAvgV+1e-9 {
		t.Fatalf("AvgVertexDegree = %f, want %f", s.AvgVertexDegree, wantAvgV)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	h := paperExample()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a sorted row.
	h.eAdj[0], h.eAdj[1] = h.eAdj[1], h.eAdj[0]
	if err := h.Validate(); err == nil {
		t.Fatal("Validate accepted unsorted adjacency")
	}
}

func TestRelabelOrderString(t *testing.T) {
	if RelabelNone.String() != "N" || RelabelAscending.String() != "A" || RelabelDescending.String() != "D" {
		t.Fatal("unexpected RelabelOrder notation")
	}
	if RelabelOrder(9).String() != "?" {
		t.Fatal("unknown order should stringify to ?")
	}
}
