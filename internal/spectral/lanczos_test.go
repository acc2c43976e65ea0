package spectral

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/graph"
)

// jacobiLambda2 is λ₂ of g's largest component by dense Jacobi, 0 when
// that component has fewer than two nodes.
func jacobiLambda2(g *graph.Graph) float64 {
	sub := LargestComponent(g)
	if sub.NumNodes() < 2 {
		return 0
	}
	return jacobiEigenvalues(denseNormalizedLaplacian(sub))[1]
}

// bundleComponent is the largest component g of one s-line graph proj
// of the measure-bundle benchmark's input, with its λ₂ by dense Jacobi.
type bundleComponent struct {
	s      int
	proj   *graph.Graph
	g      *graph.Graph
	lambda float64
}

// bundleComponents builds the Friendster analog at scale 1 (the
// generator configuration of experiments.FriendsterAnalog(1), which this
// package cannot import), its s-line graphs at s = 4..8, and their
// largest components: 345, 186, 126, 93 and 69 nodes.
var bundleComponents = sync.OnceValues(func() ([]bundleComponent, error) {
	h := gen.Community(gen.CommunityConfig{
		Seed:              1003,
		NumVertices:       60000,
		NumCommunities:    3000,
		MeanCommunitySize: 6,
		MaxCommunitySize:  120,
		EdgesPerCommunity: 3,
		Background:        8000,
	})
	sValues := []int{4, 5, 6, 7, 8}
	out, err := core.RunBatch(context.Background(), h, sValues, core.PipelineConfig{})
	if err != nil {
		return nil, err
	}
	comps := make([]bundleComponent, len(sValues))
	for i, s := range sValues {
		sub := LargestComponent(out[s].Graph)
		comps[i] = bundleComponent{s, out[s].Graph, sub, jacobiLambda2(sub)}
	}
	return comps, nil
})

func loadBundle(tb testing.TB) []bundleComponent {
	tb.Helper()
	comps, err := bundleComponents()
	if err != nil {
		tb.Fatal(err)
	}
	sizes := []int{345, 186, 126, 93, 69}
	for i, c := range comps {
		if c.g.NumNodes() != sizes[i] {
			tb.Fatalf("s=%d: largest component has %d nodes, want %d", c.s, c.g.NumNodes(), sizes[i])
		}
	}
	return comps
}

func checkLambda2(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) || got < 0 || got > 2 || math.Abs(got-want) > 1e-10 {
		t.Errorf("%s: λ₂ = %.17g, Jacobi %.17g (diff %.3g)", name, got, want, got-want)
	}
}

func TestLambda2MatchesJacobi(t *testing.T) {
	for name, g := range referenceGraphs() {
		checkLambda2(t, name, NormalizedAlgebraicConnectivity(g, Options{}), jacobiLambda2(g))
	}
	for _, c := range loadBundle(t) {
		got, steps := NormalizedAlgebraicConnectivityIters(c.g, Options{})
		checkLambda2(t, fmt.Sprintf("bundle s=%d", c.s), got, c.lambda)
		t.Logf("s=%d: %d nodes, %d steps", c.s, c.g.NumNodes(), steps)
	}
}

// TestLambda2Restart caps the basis at a few vectors, so the solver
// restarts from its Ritz vector many times over, and requires the same
// accuracy as an uncapped run and bit-identical repeats.
func TestLambda2Restart(t *testing.T) {
	const maxBasis = 4
	c := loadBundle(t)[0]
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"path", pathGraph(17), jacobiLambda2(pathGraph(17))},
		{"bundle s=4", c.g, c.lambda},
	} {

		got, steps := normalizedLambda2Connected(tc.g, Options{}, maxBasis)
		if steps <= maxBasis {
			t.Fatalf("%s: converged in %d steps, so the basis cap of %d never restarted", tc.name, steps, maxBasis)
		}
		checkLambda2(t, tc.name, got, tc.want)
		again, againSteps := normalizedLambda2Connected(tc.g, Options{}, maxBasis)
		if math.Float64bits(again) != math.Float64bits(got) || againSteps != steps {
			t.Fatalf("%s: repeat gave %x in %d steps, first run %x in %d", tc.name, math.Float64bits(again), againSteps, math.Float64bits(got), steps)
		}
		t.Logf("%s: %d steps at a basis of %d", tc.name, steps, maxBasis)
	}
}

// FuzzLambda2MatchesJacobi decodes bytes into a graph of at most 40
// nodes — the first byte picks the node count, each later pair an edge —
// and requires λ₂ of its largest component within 1e-10 of dense Jacobi.
func FuzzLambda2MatchesJacobi(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 2, 3, 4})
	f.Add([]byte{38, 1, 7, 7, 13, 13, 2, 2, 9, 9, 30, 30, 1, 4, 5, 5, 6, 20, 21, 21, 22, 22, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%39
		var edges []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			u, v := uint32(int(data[i])%n), uint32(int(data[i+1])%n)
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: 1})
			}
		}
		g := graph.Build(n, edges, false)
		checkLambda2(t, "fuzz", NormalizedAlgebraicConnectivity(g, Options{}), jacobiLambda2(g))
	})
}

// BenchmarkLambda2BundleInput times the solver alone on the five largest
// components of the measure-bundle input, one solve each per op.
func BenchmarkLambda2BundleInput(b *testing.B) {
	comps := loadBundle(b)
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		steps = 0
		for _, c := range comps {
			_, k := normalizedLambda2Connected(c.g, Options{}, basisCap(c.g.NumNodes()))
			steps += k
		}
	}
	b.ReportMetric(float64(steps), "steps/op")
}
