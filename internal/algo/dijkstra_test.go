package algo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyperline/internal/graph"
)

func TestWeightedDistancesUnitCostMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(40), r.Intn(80))
		unit := func(uint32) float64 { return 1 }
		for src := 0; src < g.NumNodes(); src += 3 {
			wd := WeightedDistances(g, uint32(src), unit)
			bd := BFSDistances(g, uint32(src))
			for v := range wd {
				if bd[v] < 0 {
					if !math.IsInf(wd[v], 1) {
						return false
					}
					continue
				}
				if wd[v] != float64(bd[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDistancesInverseOverlap(t *testing.T) {
	// Path 0 -(w4)- 1 -(w2)- 2, plus direct 0 -(w1)- 2.
	// Inverse-overlap: via 1 costs 1/4+1/2 = 0.75 < direct 1.
	g := graph.Build(3, []graph.Edge{
		{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 1},
	}, false)
	d := WeightedDistances(g, 0, nil)
	if math.Abs(d[2]-0.75) > 1e-12 {
		t.Fatalf("d(0,2) = %f, want 0.75 (through the strong overlaps)", d[2])
	}
	if math.Abs(d[1]-0.25) > 1e-12 {
		t.Fatalf("d(0,1) = %f, want 0.25", d[1])
	}
}

func TestWeightedDistancesMatchesBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		var edges []graph.Edge
		for k := 0; k < 40; k++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: uint32(1 + r.Intn(9))})
			}
		}
		g := graph.Build(n, edges, false)
		got := WeightedDistances(g, 0, nil)
		want := bellmanFord(g, 0)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
				return false
			}
			if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func bellmanFord(g *graph.Graph, src uint32) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			ids, ws := g.Neighbors(uint32(u))
			for k, v := range ids {
				if nd := dist[u] + 1/float64(ws[k]); nd < dist[v]-1e-15 {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestWeightedDistancesNegativeCostPanics(t *testing.T) {
	g := graph.Build(2, []graph.Edge{{U: 0, V: 1, W: 1}}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative cost")
		}
	}()
	WeightedDistances(g, 0, func(uint32) float64 { return -1 })
}
