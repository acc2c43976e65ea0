package spectral

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hyperline/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32(i + 1), W: 1})
	}
	return graph.Build(n, edges, false)
}

func completeGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: uint32(i), V: uint32(j), W: 1})
		}
	}
	return graph.Build(n, edges, false)
}

func cycleGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32((i + 1) % n), W: 1})
	}
	return graph.Build(n, edges, false)
}

// jacobiEigenvalues computes all eigenvalues of a dense symmetric
// matrix with the cyclic Jacobi method (test oracle).
func jacobiEigenvalues(a [][]float64) []float64 {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	for sweep := 0; sweep < 200; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-15 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = m[i][i]
	}
	sort.Float64s(eig)
	return eig
}

func denseNormalizedLaplacian(g *graph.Graph) [][]float64 {
	n := g.NumNodes()
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		du := float64(g.Degree(uint32(u)))
		if du > 0 {
			l[u][u] = 1
		}
		ids, _ := g.Neighbors(uint32(u))
		for _, v := range ids {
			dv := float64(g.Degree(v))
			l[u][int(v)] = -1 / math.Sqrt(du*dv)
		}
	}
	return l
}

func TestNormalizedConnectivityCompleteGraph(t *testing.T) {
	// For K_n, the normalized Laplacian eigenvalues are 0 and
	// n/(n-1): λ₂ = n/(n-1).
	for _, n := range []int{3, 5, 8} {
		got := NormalizedAlgebraicConnectivity(completeGraph(n), Options{})
		want := float64(n) / float64(n-1)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("K_%d: λ₂ = %f, want %f", n, got, want)
		}
	}
}

func TestNormalizedConnectivityCycle(t *testing.T) {
	// For the n-cycle (2-regular), L̂ = L/2, so λ₂ = 1 - cos(2π/n).
	for _, n := range []int{4, 6, 10} {
		got := NormalizedAlgebraicConnectivity(cycleGraph(n), Options{})
		want := 1 - math.Cos(2*math.Pi/float64(n))
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("C_%d: λ₂ = %f, want %f", n, got, want)
		}
	}
}

func TestNormalizedConnectivitySingleEdge(t *testing.T) {
	// K_2: eigenvalues {0, 2} → λ₂ = 2.
	got := NormalizedAlgebraicConnectivity(completeGraph(2), Options{})
	if math.Abs(got-2) > 1e-6 {
		t.Fatalf("K_2: λ₂ = %f, want 2", got)
	}
}

func TestNormalizedConnectivityTinyOrEmpty(t *testing.T) {
	if got := NormalizedAlgebraicConnectivity(graph.Build(0, nil, false), Options{}); got != 0 {
		t.Fatalf("empty graph λ₂ = %f, want 0", got)
	}
	if got := NormalizedAlgebraicConnectivity(graph.Build(3, nil, false), Options{}); got != 0 {
		t.Fatalf("edgeless graph λ₂ = %f, want 0", got)
	}
}

func TestNormalizedConnectivityMatchesJacobi(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(10)
		var edges []graph.Edge
		// Random connected-ish graph: spanning path + random extras.
		for i := 0; i < n-1; i++ {
			edges = append(edges, graph.Edge{U: uint32(i), V: uint32(i + 1), W: 1})
		}
		for k := 0; k < n; k++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: 1})
			}
		}
		g := graph.Build(n, edges, false)
		got := NormalizedAlgebraicConnectivity(g, Options{})
		eig := jacobiEigenvalues(denseNormalizedLaplacian(g))
		want := eig[1]
		return math.Abs(got-want) <= 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLargestComponentSelection(t *testing.T) {
	// Components {0,1,2} (triangle) and {3,4} (edge): largest is the
	// triangle.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1},
	}
	g := graph.Build(6, edges, false)
	sub := LargestComponent(g)
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("largest component %d nodes %d edges, want 3, 3", sub.NumNodes(), sub.NumEdges())
	}
	// λ₂ of the whole (disconnected) graph per our definition = λ₂ of
	// the triangle = 3/2.
	got := NormalizedAlgebraicConnectivity(g, Options{})
	if math.Abs(got-1.5) > 1e-6 {
		t.Fatalf("λ₂ = %f, want 1.5", got)
	}
}

func TestConnectivityOrderingStarVsComplete(t *testing.T) {
	// Denser graphs are better connected: λ₂(K_6) > λ₂(C_6) —
	// the qualitative signal Fig. 6 relies on.
	k := NormalizedAlgebraicConnectivity(completeGraph(6), Options{})
	c := NormalizedAlgebraicConnectivity(cycleGraph(6), Options{})
	if k <= c {
		t.Fatalf("λ₂(K_6)=%f should exceed λ₂(C_6)=%f", k, c)
	}
}
