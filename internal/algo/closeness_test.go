package algo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyperline/internal/graph"
	"hyperline/internal/par"
)

func TestClosenessPath(t *testing.T) {
	// Path 0-1-2: closeness(1) = 2/(1+1) = 1, closeness(0) = 2/3.
	g := pathGraph(3)
	c := ClosenessCentrality(g, par.Options{})
	if math.Abs(c[1]-1) > 1e-9 {
		t.Fatalf("closeness(1) = %f, want 1", c[1])
	}
	if math.Abs(c[0]-2.0/3.0) > 1e-9 {
		t.Fatalf("closeness(0) = %f, want 2/3", c[0])
	}
	if math.Abs(c[0]-c[2]) > 1e-12 {
		t.Fatal("symmetry broken")
	}
}

func TestClosenessDisconnected(t *testing.T) {
	// Two components {0,1} and {2,3,4} (path). Wasserman-Faust scales
	// by reachable fraction.
	g := graph.Build(5, []graph.Edge{
		{U: 0, V: 1, W: 1},
		{U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1},
	}, false)
	c := ClosenessCentrality(g, par.Options{Workers: 2})
	// Node 0: r=2, sum=1 → (1/4)·(1/1) = 0.25.
	if math.Abs(c[0]-0.25) > 1e-9 {
		t.Fatalf("closeness(0) = %f, want 0.25", c[0])
	}
	// Node 3: r=3, sum=2 → (2/4)·(2/2) = 0.5.
	if math.Abs(c[3]-0.5) > 1e-9 {
		t.Fatalf("closeness(3) = %f, want 0.5", c[3])
	}
}

func TestClosenessIsolated(t *testing.T) {
	g := graph.Build(3, []graph.Edge{{U: 0, V: 1, W: 1}}, false)
	c := ClosenessCentrality(g, par.Options{})
	if c[2] != 0 {
		t.Fatalf("isolated closeness = %f, want 0", c[2])
	}
}

func TestHarmonicPath(t *testing.T) {
	// Path 0-1-2: H(1) = (1+1)/2 = 1, H(0) = (1 + 1/2)/2 = 0.75.
	g := pathGraph(3)
	h := HarmonicCentrality(g, par.Options{})
	if math.Abs(h[1]-1) > 1e-9 || math.Abs(h[0]-0.75) > 1e-9 {
		t.Fatalf("harmonic = %v", h)
	}
}

func TestHarmonicDisconnectedFinite(t *testing.T) {
	g := graph.Build(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}, false)
	h := HarmonicCentrality(g, par.Options{})
	for _, v := range h {
		if math.Abs(v-1.0/3.0) > 1e-9 {
			t.Fatalf("harmonic = %v, want all 1/3", h)
		}
	}
}

func TestEccentricitiesMatchSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(40), r.Intn(80))
		ecc := Eccentricities(g, par.Options{Workers: 4})
		for u := 0; u < g.NumNodes(); u++ {
			if ecc[u] != Eccentricity(g, uint32(u)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringTriangle(t *testing.T) {
	var edges []graph.Edge
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			edges = append(edges, graph.Edge{U: uint32(i), V: uint32(j), W: 1})
		}
	}
	g := graph.Build(3, edges, false)
	cc := ClusteringCoefficients(g, par.Options{})
	for _, c := range cc {
		if math.Abs(c-1) > 1e-9 {
			t.Fatalf("triangle clustering = %v, want all 1", cc)
		}
	}
	if gcc := GlobalClusteringCoefficient(g, par.Options{}); math.Abs(gcc-1) > 1e-9 {
		t.Fatalf("global clustering = %f, want 1", gcc)
	}
}

func TestClusteringStar(t *testing.T) {
	g := starGraph(5)
	cc := ClusteringCoefficients(g, par.Options{})
	for _, c := range cc {
		if c != 0 {
			t.Fatalf("star clustering = %v, want all 0", cc)
		}
	}
	if gcc := GlobalClusteringCoefficient(g, par.Options{}); gcc != 0 {
		t.Fatalf("global clustering = %f, want 0", gcc)
	}
}

func TestClusteringPaw(t *testing.T) {
	// Triangle {0,1,2} + pendant 3 on 2.
	g := graph.Build(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	}, false)
	cc := ClusteringCoefficients(g, par.Options{})
	want := []float64{1, 1, 1.0 / 3.0, 0}
	for i := range want {
		if math.Abs(cc[i]-want[i]) > 1e-9 {
			t.Fatalf("clustering = %v, want %v", cc, want)
		}
	}
	// Global: 3 closed wedges (one per triangle corner), total wedges
	// = 1 + 1 + 3 = 5.
	if gcc := GlobalClusteringCoefficient(g, par.Options{}); math.Abs(gcc-3.0/5.0) > 1e-9 {
		t.Fatalf("global clustering = %f, want 0.6", gcc)
	}
}

func TestCentralitiesDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := randomGraph(r, 60, 150)
	c1 := ClosenessCentrality(g, par.Options{Workers: 1})
	h1 := HarmonicCentrality(g, par.Options{Workers: 1})
	for _, w := range []int{3, 8} {
		cw := ClosenessCentrality(g, par.Options{Workers: w, Strategy: par.Cyclic})
		hw := HarmonicCentrality(g, par.Options{Workers: w, Strategy: par.Cyclic})
		for i := range c1 {
			if math.Abs(cw[i]-c1[i]) > 1e-12 || math.Abs(hw[i]-h1[i]) > 1e-12 {
				t.Fatalf("worker count changed centralities at node %d", i)
			}
		}
	}
}

func TestDegrees(t *testing.T) {
	g := starGraph(4)
	d := Degrees(g)
	if d[0] != 3 || d[1] != 1 || d[2] != 1 || d[3] != 1 {
		t.Fatalf("degrees = %v", d)
	}
}

func TestCentralitiesTinyGraphs(t *testing.T) {
	empty := graph.Build(0, nil, false)
	if len(ClosenessCentrality(empty, par.Options{})) != 0 {
		t.Fatal("empty closeness should be empty")
	}
	single := graph.Build(1, nil, false)
	if c := ClosenessCentrality(single, par.Options{}); len(c) != 1 || c[0] != 0 {
		t.Fatal("singleton closeness should be 0")
	}
	if h := HarmonicCentrality(single, par.Options{}); h[0] != 0 {
		t.Fatal("singleton harmonic should be 0")
	}
}

// Eccentricity returns the maximum finite distance from src (0 when
// src is isolated).
func Eccentricity(g *graph.Graph, src uint32) int32 {
	max := int32(0)
	for _, d := range BFSDistances(g, src) {
		if d > max {
			max = d
		}
	}
	return max
}

// Degrees returns the degree of every node.
func Degrees(g *graph.Graph) []int {
	out := make([]int, g.NumNodes())
	for u := range out {
		out[u] = g.Degree(uint32(u))
	}
	return out
}
