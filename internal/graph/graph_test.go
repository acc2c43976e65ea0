package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v uint32) bool {
	ids, _ := g.Neighbors(u)
	_, ok := slices.BinarySearch(ids, v)
	return ok
}

func triangle() *Graph {
	return Build(5, []Edge{{0, 2, 3}, {2, 4, 1}, {0, 4, 2}}, false)
}

func TestBuildBasic(t *testing.T) {
	g := triangle()
	if g.NumNodes() != 5 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d, want 5, 3", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 0 || g.Degree(2) != 2 {
		t.Fatal("degrees wrong")
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) || g.HasEdge(0, 1) {
		t.Fatal("HasEdge wrong")
	}
	if g.Weight(0, 2) != 3 || g.Weight(2, 4) != 1 || g.Weight(0, 1) != 0 {
		t.Fatal("weights wrong")
	}
	ids, ws := g.Neighbors(0)
	if !reflect.DeepEqual(ids, []uint32{2, 4}) || !reflect.DeepEqual(ws, []uint32{3, 2}) {
		t.Fatalf("neighbors of 0 = %v/%v", ids, ws)
	}
}

func TestBuildSqueeze(t *testing.T) {
	g := Build(100, []Edge{{10, 50, 2}, {50, 90, 4}}, true)
	if g.NumNodes() != 3 {
		t.Fatalf("squeezed nodes = %d, want 3", g.NumNodes())
	}
	if !g.Squeezed() {
		t.Fatal("Squeezed() = false")
	}
	wantOrig := []uint32{10, 50, 90}
	for n, want := range wantOrig {
		if got := g.OrigID(uint32(n)); got != want {
			t.Fatalf("OrigID(%d) = %d, want %d", n, got, want)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("squeezed topology wrong")
	}
}

func TestBuildIgnoresSelfLoopsAndDuplicates(t *testing.T) {
	g := Build(4, []Edge{{1, 1, 9}, {0, 2, 1}, {2, 0, 5}, {0, 2, 3}}, false)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	// Duplicate resolution keeps the max weight.
	if g.Weight(0, 2) != 5 {
		t.Fatalf("weight = %d, want 5", g.Weight(0, 2))
	}
}

func TestOrigIDIdentityWithoutSqueeze(t *testing.T) {
	g := triangle()
	for n := uint32(0); n < 5; n++ {
		if g.OrigID(n) != n {
			t.Fatal("OrigID should be identity without squeeze")
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 2, 3}, {0, 4, 2}, {2, 4, 1}}
	g := Build(5, in, false)
	if got := g.Edges(); !reflect.DeepEqual(got, in) {
		t.Fatalf("Edges() = %v, want %v", got, in)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Build(0, nil, true)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if len(g.Edges()) != 0 {
		t.Fatal("empty graph has edges")
	}
}

func TestBuildProperty(t *testing.T) {
	// Degrees sum to 2|E|; every listed edge is queryable from both
	// endpoints; adjacency rows are sorted.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		var edges []Edge
		for k := 0; k < 50; k++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			edges = append(edges, Edge{u, v, uint32(1 + r.Intn(9))})
		}
		for _, squeeze := range []bool{false, true} {
			g := Build(n, edges, squeeze)
			degSum := 0
			for u := 0; u < g.NumNodes(); u++ {
				degSum += g.Degree(uint32(u))
				ids, _ := g.Neighbors(uint32(u))
				for i := 1; i < len(ids); i++ {
					if ids[i-1] >= ids[i] {
						return false
					}
				}
			}
			if degSum != 2*g.NumEdges() {
				return false
			}
			for _, e := range g.Edges() {
				if !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) {
					return false
				}
				if g.Weight(e.U, e.V) != g.Weight(e.V, e.U) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSqueezePreservesTopology(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(50)
		var edges []Edge
		for k := 0; k < 30; k++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			if u == v {
				continue
			}
			edges = append(edges, Edge{u, v, 1})
		}
		plain := Build(n, edges, false)
		sq := Build(n, edges, true)
		if plain.NumEdges() != sq.NumEdges() {
			return false
		}
		// Map squeezed edges back and compare sets.
		want := map[[2]uint32]bool{}
		for _, e := range plain.Edges() {
			want[[2]uint32{e.U, e.V}] = true
		}
		for _, e := range sq.Edges() {
			u, v := sq.OrigID(e.U), sq.OrigID(e.V)
			if u > v {
				u, v = v, u
			}
			if !want[[2]uint32{u, v}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
