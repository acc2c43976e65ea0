package toplex

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hyperline/internal/hg"
)

func paperExample() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1, 2},       // 1: a b c  ⊂ edge 3
		{1, 2, 3},       // 2: b c d  ⊂ edge 3
		{0, 1, 2, 3, 4}, // 3: a b c d e (toplex)
		{4, 5},          // 4: e f (toplex)
	}, 6)
}

func TestToplexesExample(t *testing.T) {
	got := Toplexes(paperExample())
	if !reflect.DeepEqual(got, []uint32{2, 3}) {
		t.Fatalf("toplexes = %v, want [2 3]", got)
	}
}

func TestToplexesDuplicatesKeepLowestID(t *testing.T) {
	h := hg.FromEdgeSlices([][]uint32{
		{1, 2, 3},
		{1, 2, 3},
		{4, 5},
	}, 6)
	got := Toplexes(h)
	if !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Fatalf("toplexes = %v, want [0 2]", got)
	}
}

func TestToplexesAllMaximal(t *testing.T) {
	h := hg.FromEdgeSlices([][]uint32{
		{0, 1},
		{2, 3},
		{4, 5},
	}, 6)
	if !IsSimple(h) {
		t.Fatal("pairwise-disjoint hypergraph must be simple")
	}
}

func TestToplexesEmptyEdges(t *testing.T) {
	b := hg.NewBuilder(0)
	b.AddEdge(1, 0, 1) // edge 0 left empty
	h, err := b.BuildWithSize(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := Toplexes(h)
	if !reflect.DeepEqual(got, []uint32{1}) {
		t.Fatalf("toplexes = %v, want [1]", got)
	}
}

func TestSimplify(t *testing.T) {
	h := paperExample()
	simple, orig := Simplify(h)
	if simple.NumEdges() != 2 {
		t.Fatalf("simplified edges = %d, want 2", simple.NumEdges())
	}
	if !reflect.DeepEqual(orig, []uint32{2, 3}) {
		t.Fatalf("orig = %v, want [2 3]", orig)
	}
	if !IsSimple(simple) {
		t.Fatal("simplification must be simple")
	}
	if err := simple.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestToplexesOracle cross-checks against an O(m²) brute force on
// random hypergraphs.
func TestToplexesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		edges := make([][]uint32, 25)
		for e := range edges {
			size := 1 + r.Intn(5)
			seen := map[uint32]bool{}
			for len(seen) < size {
				seen[uint32(r.Intn(12))] = true
			}
			for v := range seen {
				edges[e] = append(edges[e], v)
			}
		}
		h := hg.FromEdgeSlices(edges, 12)
		got := Toplexes(h)
		want := bruteToplexes(h)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteToplexes: edge e survives iff no other edge strictly contains
// it, and among identical edges only the lowest ID survives.
func bruteToplexes(h *hg.Hypergraph) []uint32 {
	var out []uint32
	m := h.NumEdges()
	for e := 0; e < m; e++ {
		ev := h.EdgeVertices(uint32(e))
		if len(ev) == 0 {
			continue
		}
		maximal := true
		for f := 0; f < m && maximal; f++ {
			if f == e {
				continue
			}
			fv := h.EdgeVertices(uint32(f))
			if isSubset(ev, fv) {
				if len(fv) > len(ev) || f < e {
					maximal = false
				}
			}
		}
		if maximal {
			out = append(out, uint32(e))
		}
	}
	return out
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want bool
	}{
		{nil, nil, true},
		{nil, []uint32{1}, true},
		{[]uint32{1}, nil, false},
		{[]uint32{1, 3}, []uint32{1, 2, 3}, true},
		{[]uint32{1, 4}, []uint32{1, 2, 3}, false},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, true},
	}
	for _, c := range cases {
		if got := isSubset(c.a, c.b); got != c.want {
			t.Errorf("isSubset(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// IsSimple reports whether every hyperedge of h is a toplex (H = Ȟ).
func IsSimple(h *hg.Hypergraph) bool {
	return len(Toplexes(h)) == h.NumEdges()
}

// ContainedRatio returns the exact fraction of hyperedges that are not
// toplexes — the fraction Simplify removes. It is the ground truth the
// planner's sampled estimate (hg.Stats.ToplexSample) approximates, at
// the cost of a full Toplexes pass.
func ContainedRatio(h *hg.Hypergraph) float64 {
	m := h.NumEdges()
	if m == 0 {
		return 0
	}
	return float64(m-len(Toplexes(h))) / float64(m)
}
