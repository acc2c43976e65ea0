package algo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hyperline/internal/graph"
	"hyperline/internal/par"
)

func randomGraph(r *rand.Rand, n, m int) *graph.Graph {
	var edges []graph.Edge
	for k := 0; k < m; k++ {
		u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	return graph.Build(n, edges, false)
}

func pathGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32(i + 1), W: 1})
	}
	return graph.Build(n, edges, false)
}

func starGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(i), W: 1})
	}
	return graph.Build(n, edges, false)
}

func TestConnectedComponentsBasic(t *testing.T) {
	g := graph.Build(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1},
	}, false)
	cc := ConnectedComponents(g)
	if cc.Count != 3 {
		t.Fatalf("components = %d, want 3", cc.Count)
	}
	if cc.Label[0] != cc.Label[2] || cc.Label[0] == cc.Label[3] || cc.Label[4] == cc.Label[5] {
		t.Fatal("component membership wrong")
	}
	members := cc.Members()
	if !reflect.DeepEqual(members[0], []uint32{0, 1, 2}) {
		t.Fatalf("members[0] = %v", members[0])
	}
	if !reflect.DeepEqual(members[1], []uint32{3, 4}) {
		t.Fatalf("members[1] = %v", members[1])
	}
	if !reflect.DeepEqual(members[2], []uint32{5}) {
		t.Fatalf("members[2] = %v", members[2])
	}
}

// bothDirectionsCC is a union-find, the oracle of the graph's held
// breadth-first labelling: every CSR entry united, so each edge twice.
func bothDirectionsCC(g *graph.Graph) *Components {
	n := g.NumNodes()
	parent := make([]uint32, n)
	for u := range parent {
		parent[u] = uint32(u)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		ids, _ := g.Neighbors(uint32(u))
		for _, v := range ids {
			ru, rv := find(uint32(u)), find(v)
			if ru < rv {
				parent[rv] = ru
			} else if rv < ru {
				parent[ru] = rv
			}
		}
	}
	labels := make([]uint32, n)
	count := 0
	for u := range labels {
		labels[u] = find(uint32(u))
		if labels[u] == uint32(u) {
			count++
		}
	}
	return &Components{Label: labels, Count: count}
}

// TestConnectedComponentsMatchesBothDirections pins the breadth-first
// labeling to the both-directions union-find on random graphs,
// graphs with isolated nodes and the measure-bundle input.
func TestConnectedComponentsMatchesBothDirections(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"empty":    graph.Build(0, nil, false),
		"edgeless": graph.Build(7, nil, false),
		"isolated": graph.Build(12, []graph.Edge{{U: 1, V: 4, W: 1}, {U: 4, V: 9, W: 1}, {U: 6, V: 11, W: 1}}, false),
		"star":     starGraph(20),
	}
	r := rand.New(rand.NewSource(47))
	for k := 0; k < 40; k++ {
		n := 1 + r.Intn(150)
		graphs[fmt.Sprintf("random-%d", k)] = randomGraph(r, n, r.Intn(2*n))
	}
	for i, g := range loadBundle(t) {
		graphs[fmt.Sprintf("bundle s=%d", 4+i)] = g
	}
	for name, g := range graphs {
		got, want := ConnectedComponents(g), bothDirectionsCC(g)
		if got.Count != want.Count || !slices.Equal(got.Label, want.Label) {
			t.Fatalf("%s: %d components %v, both directions %d %v", name, got.Count, got.Label, want.Count, want.Label)
		}
	}
}

// TestHeldComponentsMatchUnionFind: the graph's held labelling has the
// union-find's labels and count, and its node list is the union-find's
// members, component-major, on random graphs (isolated nodes among
// them), the empty and edgeless graphs and single-component ones.
func TestHeldComponentsMatchUnionFind(t *testing.T) {
	graphs := []*graph.Graph{graph.Build(0, nil, false), graph.Build(5, nil, false), pathGraph(30), starGraph(17)}
	r := rand.New(rand.NewSource(51))
	for k := 0; k < 60; k++ {
		n := 1 + r.Intn(200)
		graphs = append(graphs, randomGraph(r, n, r.Intn(2*n)))
	}
	for i, g := range graphs {
		got, want := g.Components(), bothDirectionsCC(g)
		var nodes []uint32
		bounds := []uint32{0}
		for _, ms := range membersByMap(want) {
			nodes = append(nodes, ms...)
			bounds = append(bounds, uint32(len(nodes)))
		}
		if got.Count() != want.Count || !slices.Equal(got.Label, want.Label) ||
			!slices.Equal(got.Nodes, nodes) || !slices.Equal(got.Bounds, bounds) {
			t.Fatalf("graph %d: held %d components %+v; union-find %d, nodes %v, bounds %v",
				i, got.Count(), got, want.Count, nodes, bounds)
		}
	}
}

// membersByMap is the map-based Members the counting sort replaced,
// kept as its reference.
func membersByMap(c *Components) [][]uint32 {
	byLabel := map[uint32][]uint32{}
	for u, l := range c.Label {
		byLabel[l] = append(byLabel[l], uint32(u))
	}
	out := make([][]uint32, 0, len(byLabel))
	for l := uint32(0); int(l) < len(c.Label); l++ {
		if ms, ok := byLabel[l]; ok {
			out = append(out, ms)
		}
	}
	return out
}

func TestMembersMatchesMapVersion(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	var cases []*Components
	for k := 0; k < 40; k++ {
		n := 1 + r.Intn(80)
		g := randomGraph(r, n, r.Intn(2*n))
		cases = append(cases, ConnectedComponents(g), LabelPropagationCC(g, par.Options{Workers: 3}))
	}
	// Unsqueezed, isolated nodes between the connected ones.
	iso := graph.Build(12, []graph.Edge{{U: 1, V: 4, W: 1}, {U: 4, V: 9, W: 1}, {U: 6, V: 11, W: 1}}, false)
	cases = append(cases, ConnectedComponents(iso), LabelPropagationCC(iso, par.Options{Workers: 2}))
	cases = append(cases, ConnectedComponents(graph.Build(0, nil, false)))
	for i, c := range cases {
		got, want := c.Members(), membersByMap(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Members = %v, map version %v", i, got, want)
		}
		// An append to one list must not write into the next.
		for j := 0; j+1 < len(got); j++ {
			nextFirst := got[j+1][0]
			_ = append(got[j], 1<<31)
			if got[j+1][0] != nextFirst {
				t.Fatalf("case %d: append to list %d overwrote list %d", i, j, j+1)
			}
		}
	}
}

func TestLPCCMatchesUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(60), r.Intn(100))
		uf := ConnectedComponents(g)
		lp := LabelPropagationCC(g, par.Options{Workers: 4})
		return uf.Count == lp.Count && reflect.DeepEqual(uf.Label, lp.Label)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLPCCStrategies(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := randomGraph(r, 200, 400)
	want := ConnectedComponents(g).Label
	for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
		got := LabelPropagationCC(g, par.Options{Workers: 8, Strategy: strat}).Label
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("strategy %v differs from union-find", strat)
		}
	}
}

func TestBFSDistancesPath(t *testing.T) {
	g := pathGraph(5)
	d := BFSDistances(g, 0)
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("distances = %v, want %v", d, want)
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := graph.Build(4, []graph.Edge{{U: 0, V: 1, W: 1}}, false)
	d := BFSDistances(g, 0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Fatalf("expected unreachable, got %v", d)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := pathGraph(6)
	if e := Eccentricity(g, 0); e != 5 {
		t.Fatalf("ecc(0) = %d, want 5", e)
	}
	if e := Eccentricity(g, 3); e != 3 {
		t.Fatalf("ecc(3) = %d, want 3", e)
	}
	if d := slices.Max(Eccentricities(g, par.Options{})); d != 5 {
		t.Fatalf("diameter = %d, want 5", d)
	}
	if d := slices.Max(Eccentricities(starGraph(7), par.Options{})); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: betweenness (pair-doubled) of node i counts
	// 2·(#pairs separated): node 1 separates {0}×{2,3,4} → 6; node 2
	// separates {0,1}×{3,4} → 8.
	g := pathGraph(5)
	b := Betweenness(g, par.Options{Workers: 3})
	want := []float64{0, 6, 8, 6, 0}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-9 {
			t.Fatalf("betweenness = %v, want %v", b, want)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with center 0 and k=5 leaves: center lies on all
	// leaf-leaf shortest paths: 2·C(5,2) = 20. Leaves: 0.
	g := starGraph(6)
	b := Betweenness(g, par.Options{})
	if math.Abs(b[0]-20) > 1e-9 {
		t.Fatalf("center betweenness = %f, want 20", b[0])
	}
	for i := 1; i < 6; i++ {
		if b[i] != 0 {
			t.Fatalf("leaf %d betweenness = %f, want 0", i, b[i])
		}
	}
	norm := Normalize(b)
	// NetworkX-style normalization: 20 / ((n-1)(n-2)) = 20/20 = 1.
	if math.Abs(norm[0]-1) > 1e-9 {
		t.Fatalf("normalized center = %f, want 1", norm[0])
	}
}

// bruteBetweenness enumerates all shortest paths explicitly via BFS
// path counting from every pair (O(n³)-ish; tiny graphs only).
func bruteBetweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	score := make([]float64, n)
	for s := 0; s < n; s++ {
		ds := BFSDistances(g, uint32(s))
		// sigma[v]: number of shortest s→v paths.
		sigma := make([]float64, n)
		sigma[s] = 1
		// process nodes in BFS-distance order
		order := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if ds[v] >= 0 {
				order = append(order, v)
			}
		}
		for d := int32(1); ; d++ {
			found := false
			for _, v := range order {
				if ds[v] != d {
					continue
				}
				found = true
				ids, _ := g.Neighbors(uint32(v))
				for _, u := range ids {
					if ds[u] == d-1 {
						sigma[v] += sigma[u]
					}
				}
			}
			if !found {
				break
			}
		}
		for t := 0; t < n; t++ {
			if t == s || ds[t] <= 0 {
				continue
			}
			// Count shortest s→t paths through each interior w.
			dt := BFSDistances(g, uint32(t))
			for w := 0; w < n; w++ {
				if w == s || w == t || ds[w] < 0 || dt[w] < 0 {
					continue
				}
				if ds[w]+dt[w] != ds[t] {
					continue
				}
				// sigma_st(w) = sigma_s(w) * sigma_t(w)
				sigmaT := make([]float64, n)
				sigmaT[t] = 1
				for d := int32(1); d <= dt[w]; d++ {
					for v := 0; v < n; v++ {
						if dt[v] != d {
							continue
						}
						ids, _ := g.Neighbors(uint32(v))
						for _, u := range ids {
							if dt[u] == d-1 {
								sigmaT[v] += sigmaT[u]
							}
						}
					}
				}
				score[w] += sigma[w] * sigmaT[w] / sigma[t]
			}
		}
	}
	return score
}

func TestBetweennessMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(10), r.Intn(16))
		got := Betweenness(g, par.Options{Workers: 2})
		want := bruteBetweenness(g)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweennessDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	g := randomGraph(r, 80, 200)
	base := Betweenness(g, par.Options{Workers: 1})
	for _, w := range []int{2, 4, 8} {
		for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
			got := Betweenness(g, par.Options{Workers: w, Strategy: strat, Grain: 1})
			for i := range base {
				// Bit-identical, not approximately equal: the fixed
				// slot reduction makes the summation order
				// worker-independent.
				if got[i] != base[i] {
					t.Fatalf("workers=%d strategy=%v changed betweenness at node %d: %v != %v",
						w, strat, i, got[i], base[i])
				}
			}
		}
	}
}

func TestPageRankUniformOnRegular(t *testing.T) {
	// On a cycle (2-regular), PageRank is uniform.
	n := 10
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32((i + 1) % n), W: 1})
	}
	g := graph.Build(n, edges, false)
	pr := PageRank(g, PageRankOptions{})
	for _, p := range pr {
		if math.Abs(p-0.1) > 1e-6 {
			t.Fatalf("cycle PageRank = %v, want uniform 0.1", pr)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(40), r.Intn(80))
		pr := PageRank(g, PageRankOptions{Par: par.Options{Workers: 3}})
		sum := 0.0
		for _, p := range pr {
			sum += p
			if p < 0 {
				return false
			}
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankStarCenterHighest(t *testing.T) {
	g := starGraph(8)
	pr := PageRank(g, PageRankOptions{})
	for i := 1; i < 8; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("center rank %f not above leaf %f", pr[0], pr[i])
		}
	}
}

func TestPageRankMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 12, 30)
	got := PageRank(g, PageRankOptions{Tol: 1e-12, MaxIter: 2000})
	want := densePageRank(g, 0.85)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("node %d: got %f, want %f", i, got[i], want[i])
		}
	}
}

// densePageRank solves the PageRank system (I − d·P)·x = (1−d)/n·1 by
// Gaussian elimination with partial pivoting, where P is the
// column-stochastic random walk on g with every degree-0 node's column
// uniform.
func densePageRank(g *graph.Graph, d float64) []float64 {
	n := g.NumNodes()
	// a is the augmented matrix [I − d·P | (1−d)/n·1].
	a := make([][]float64, n)
	for u := range a {
		a[u] = make([]float64, n+1)
		a[u][u] = 1
		a[u][n] = (1 - d) / float64(n)
	}
	for v := 0; v < n; v++ {
		deg := g.Degree(uint32(v))
		if deg == 0 {
			for u := range a {
				a[u][v] -= d / float64(n)
			}
			continue
		}
		ids, _ := g.Neighbors(uint32(v))
		for _, u := range ids {
			a[u][v] -= d / float64(deg)
		}
	}
	for c := 0; c < n; c++ {
		p := c
		for u := c + 1; u < n; u++ {
			if math.Abs(a[u][c]) > math.Abs(a[p][c]) {
				p = u
			}
		}
		a[c], a[p] = a[p], a[c]
		for u := c + 1; u < n; u++ {
			f := a[u][c] / a[c][c]
			for k := c; k <= n; k++ {
				a[u][k] -= f * a[c][k]
			}
		}
	}
	x := make([]float64, n)
	for u := n - 1; u >= 0; u-- {
		s := a[u][n]
		for k := u + 1; k < n; k++ {
			s -= a[u][k] * x[k]
		}
		x[u] = s / a[u][u]
	}
	return x
}

func TestPageRankEmpty(t *testing.T) {
	if pr := PageRank(graph.Build(0, nil, false), PageRankOptions{}); pr != nil {
		t.Fatal("empty graph should yield nil ranks")
	}
}

func TestNormalizeSmall(t *testing.T) {
	if got := Normalize([]float64{5, 5}); got[0] != 0 || got[1] != 0 {
		t.Fatal("n<=2 should normalize to zero")
	}
}
