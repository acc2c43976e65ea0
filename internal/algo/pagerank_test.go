package algo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// bundleProjections builds the measure-bundle benchmark's input — the
// Friendster analog at scale 1, the generator configuration of
// experiments.FriendsterAnalog(1), which this package cannot import —
// and its s-line graphs at s = 4..8.
var bundleProjections = sync.OnceValues(func() ([]*graph.Graph, error) {
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
	gs := make([]*graph.Graph, len(sValues))
	for i, s := range sValues {
		gs[i] = out[s].Graph
	}
	return gs, nil
})

// loadBundle returns the five projections, s = 4..8 in order: 6 572,
// 6 038, 5 680, 5 214 and 4 870 nodes, none isolated.
func loadBundle(tb testing.TB) []*graph.Graph {
	tb.Helper()
	gs, err := bundleProjections()
	if err != nil {
		tb.Fatal(err)
	}
	for i, n := range []int{6572, 6038, 5680, 5214, 4870} {
		if gs[i].NumNodes() != n {
			tb.Fatalf("s=%d: %d nodes, want %d", 4+i, gs[i].NumNodes(), n)
		}
	}
	return gs
}

// powerPageRank is the PageRank fixed point by power iteration with one
// division per edge, run until successive iterates differ by less than
// 1e-14 in L1. The map contracts by d in L1, so the result lies within
// 1e-14·d/(1−d) of the exact vector.
func powerPageRank(tb testing.TB, g *graph.Graph, d float64) []float64 {
	return powerPageRankTo(tb, g, d, 1e-14)
}

// powerPageRankTo is powerPageRank run until successive iterates differ
// by less than eps, within eps·d/(1−d) of the exact vector.
func powerPageRankTo(tb testing.TB, g *graph.Graph, d, eps float64) []float64 {
	n := g.NumNodes()
	rank := make([]float64, n)
	next := make([]float64, n)
	for u := range rank {
		rank[u] = 1 / float64(n)
	}
	for iter := 0; iter < 20000; iter++ {
		var dangling float64
		for u := 0; u < n; u++ {
			if g.Degree(uint32(u)) == 0 {
				dangling += rank[u]
			}
		}
		var delta float64
		for u := 0; u < n; u++ {
			sum := 0.0
			ids, _ := g.Neighbors(uint32(u))
			for _, v := range ids {
				sum += rank[v] / float64(g.Degree(v))
			}
			next[u] = (1-d)/float64(n) + d*(sum+dangling/float64(n))
			delta += math.Abs(next[u] - rank[u])
		}
		rank, next = next, rank
		if delta < eps {
			return rank
		}
	}
	tb.Fatalf("power iteration at d=%v did not reach %v", d, eps)
	return nil
}

// checkPageRank fails unless every rank is finite and the ranks lie
// within 1e-9 of want in L1, and returns that L1 distance.
func checkPageRank(tb testing.TB, name string, got, want []float64) float64 {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d ranks, want %d", name, len(got), len(want))
	}
	var l1 float64
	for u := range want {
		if math.IsNaN(got[u]) || math.IsInf(got[u], 0) {
			tb.Fatalf("%s: rank[%d] = %v", name, u, got[u])
		}
		l1 += math.Abs(got[u] - want[u])
	}
	if l1 > 1e-9 {
		tb.Fatalf("%s: L1 error %.3g against the fixed point, above 1e-9", name, l1)
	}
	return l1
}

// TestPageRankMatchesFixedPoint requires the ranks at default Tol
// within 1e-9 in L1 of the fixed point, on graphs with isolated nodes
// (the closed form), several components and the measure-bundle input's
// five projections, and bit-identical ranks and step counts for every
// way the gather can be partitioned.
func TestPageRankMatchesFixedPoint(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path": pathGraph(17),
		"star": starGraph(33),
		"two-component": graph.Build(9, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 1},
			{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 7, W: 1}, {U: 7, V: 8, W: 1},
		}, true),
		// Unsqueezed with isolated nodes: the closed form.
		"isolated": graph.Build(12, []graph.Edge{
			{U: 1, V: 4, W: 1}, {U: 4, V: 9, W: 1}, {U: 1, V: 9, W: 1}, {U: 6, V: 7, W: 1},
		}, false),
		"edgeless": graph.Build(5, nil, false),
	}
	r := rand.New(rand.NewSource(15))
	for k := 0; k < 20; k++ {
		n := 2 + r.Intn(120)
		graphs[fmt.Sprintf("random-%d", k)] = randomGraph(r, n, r.Intn(4*n))
	}
	for i, g := range loadBundle(t) {
		graphs[fmt.Sprintf("bundle s=%d", 4+i)] = g
	}
	for name, g := range graphs {
		for _, damping := range []float64{0.85, 0.5} {
			want := powerPageRank(t, g, damping)
			first, firstSteps := PageRankIters(g, PageRankOptions{Damping: damping})
			l1 := checkPageRank(t, fmt.Sprintf("%s d=%v", name, damping), first, want)
			if strings.HasPrefix(name, "bundle") {
				t.Logf("%s d=%v: %d steps, L1 error %.2g", name, damping, firstSteps, l1)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, grain := range []int{1, 2, 64} {
					for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
						opt := PageRankOptions{Damping: damping, Par: par.Options{Workers: workers, Grain: grain, Strategy: strat}}
						got, steps := PageRankIters(g, opt)
						if steps != firstSteps {
							t.Fatalf("%s d=%v w=%d g=%d %s: %d steps, first run %d", name, damping, workers, grain, strat, steps, firstSteps)
						}
						for u := range first {
							if math.Float64bits(got[u]) != math.Float64bits(first[u]) {
								t.Fatalf("%s d=%v w=%d g=%d %s: rank[%d] = %x, first run %x", name, damping, workers, grain, strat, u, math.Float64bits(got[u]), math.Float64bits(first[u]))
							}
						}
					}
				}
			}
		}
	}
}

// FuzzPageRankMatchesDense decodes bytes into a graph of at most 40
// nodes — the first byte picks the node count, the second the damping
// factor in (0, 1), each later pair an edge, so nodes no pair names are
// isolated — and requires the ranks within 1e-9 of the dense solve in
// L1, finite, and summing to 1 within 1e-9.
func FuzzPageRankMatchesDense(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{5, 217, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Add([]byte{11, 128, 1, 4, 4, 9, 1, 9, 6, 7})
	f.Add([]byte{38, 255, 1, 7, 7, 13, 13, 2, 2, 9, 9, 30, 30, 1, 4, 5, 5, 6, 20, 21, 21, 22, 22, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%40
		d := float64(1+int(data[1])) / 257
		var edges []graph.Edge
		for i := 2; i+1 < len(data); i += 2 {
			u, v := uint32(int(data[i])%n), uint32(int(data[i+1])%n)
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: 1})
			}
		}
		g := graph.Build(n, edges, false)
		got := PageRank(g, PageRankOptions{Damping: d})
		checkPageRank(t, fmt.Sprintf("n=%d d=%v", n, d), got, densePageRank(g, d))
		var sum float64
		for _, x := range got {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("n=%d d=%v: ranks sum to %.17g", n, d, sum)
		}
	})
}

// TestPageRankDefaultMaxIterMeetsTol: at a damping near 1 the default
// step bound still lets CG meet Tol. A 2 000-node path with chords is
// one large non-regular component whose CG needs 375 steps at
// d = 0.999, where a fixed bound of 200 stopped at an L1 error of
// 4.3e-7 without a signal. The reference stops at 1e-13 between
// iterates: within 1e-10 of the exact vector at d = 0.999.
func TestPageRankDefaultMaxIterMeetsTol(t *testing.T) {
	const n = 2000
	var edges []graph.Edge
	for u := 0; u+1 < n; u++ {
		edges = append(edges, graph.Edge{U: uint32(u), V: uint32(u + 1), W: 1})
		if u%7 == 0 && u+12 < n {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(u + 12), W: 1})
		}
	}
	g := graph.Build(n, edges, false)
	for _, d := range []float64{0.998, 0.999} {
		got, steps := PageRankIters(g, PageRankOptions{Damping: d})
		l1 := checkPageRank(t, fmt.Sprintf("chorded path d=%v", d), got, powerPageRankTo(t, g, d, 1e-13))
		t.Logf("d=%v: %d steps, L1 error %.2g", d, steps, l1)
	}
	// An explicit MaxIter keeps its meaning: it caps the steps.
	if _, steps := PageRankIters(g, PageRankOptions{Damping: 0.999, MaxIter: 200}); steps != 200 {
		t.Fatalf("MaxIter 200 at d=0.999: %d steps", steps)
	}
}

// TestPageRankStepCapAtExtremeDamping: the default step cap never
// exceeds twice a component's node count, however close to 1 the
// damping. At d = 1 − 1e-15 the CG convergence bound alone allows about
// 10⁹ steps on a 3 000-node path; the cap holds it to 6 000.
func TestPageRankStepCapAtExtremeDamping(t *testing.T) {
	const n = 3000
	g := pathGraph(n)
	rank, steps := PageRankIters(g, PageRankOptions{Damping: 1 - 1e-15})
	if steps > 2*n {
		t.Fatalf("%d steps on a %d-node path, want at most %d", steps, n, 2*n)
	}
	for u, x := range rank {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("rank[%d] = %v", u, x)
		}
	}
	t.Logf("%d steps", steps)
}

// TestPageRankComponentsBitIdentical: on a graph of many components of
// every size and shape — regular and not, isolated nodes between them,
// node IDs shuffled so that components interleave — and on one whose
// largest component holds most of the nodes, the ranks lie within 1e-9
// of the fixed point, and ranks and reported steps are bit-identical
// for any way the components and the gather are spread over workers.
func TestPageRankComponentsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	var edges []graph.Edge
	n := 0
	add := func(g *graph.Graph) {
		for _, e := range g.Edges() {
			edges = append(edges, graph.Edge{U: e.U + uint32(n), V: e.V + uint32(n), W: 1})
		}
		n += g.NumNodes()
	}
	for k := 0; k < 60; k++ {
		switch k % 5 {
		case 0:
			add(pathGraph(2 + r.Intn(40)))
		case 1:
			add(starGraph(3 + r.Intn(20)))
		case 2:
			add(circulant(5+r.Intn(30), 1+r.Intn(2)))
		case 3:
			m := 3 + r.Intn(90)
			add(randomGraph(r, m, 3*m))
		default:
			n += 1 + r.Intn(3) // isolated
		}
	}
	perm := r.Perm(n)
	for i := range edges {
		edges[i].U, edges[i].V = uint32(perm[edges[i].U]), uint32(perm[edges[i].V])
	}
	many := graph.Build(n, edges, false)
	if comps := ConnectedComponents(many).Count; comps < 60 {
		t.Fatalf("%d components, want many", comps)
	}
	// One component of most of the nodes, large enough for its gather
	// to be split over the workers, beside a few small ones and
	// isolated nodes.
	edges = append(randomGraph(r, 3000, minSplitGather/2+2000).Edges(), graph.Edge{U: 3003, V: 3004, W: 1}, graph.Edge{U: 3005, V: 3006, W: 1}, graph.Edge{U: 3006, V: 3007, W: 1})
	dominant := graph.Build(3010, edges, false)
	if nodes, bounds := splitComponents(dominant); 2*(bounds[1]-bounds[0]) <= len(nodes) || 2*dominant.NumEdges() < minSplitGather {
		t.Fatalf("first component has %d of %d nodes and %d edges, want most nodes and %d entries", bounds[1]-bounds[0], len(nodes), dominant.NumEdges(), minSplitGather)
	}
	for name, g := range map[string]*graph.Graph{"many": many, "dominant": dominant} {
		for _, d := range []float64{0.85, 0.99} {
			first, firstSteps := PageRankIters(g, PageRankOptions{Damping: d, Par: par.Options{Workers: 1}})
			checkPageRank(t, fmt.Sprintf("%s d=%v", name, d), first, powerPageRankTo(t, g, d, 1e-14))
			for _, workers := range []int{1, 2, 3, 8} {
				for _, grain := range []int{0, 1, 7} {
					for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
						got, steps := PageRankIters(g, PageRankOptions{Damping: d, Par: par.Options{Workers: workers, Grain: grain, Strategy: strat}})
						if steps != firstSteps {
							t.Fatalf("%s d=%v w=%d g=%d %s: %d steps, one worker %d", name, d, workers, grain, strat, steps, firstSteps)
						}
						for u := range first {
							if math.Float64bits(got[u]) != math.Float64bits(first[u]) {
								t.Fatalf("%s d=%v w=%d g=%d %s: rank[%d] = %x, one worker %x", name, d, workers, grain, strat, u, math.Float64bits(got[u]), math.Float64bits(first[u]))
							}
						}
					}
				}
			}
		}
	}
}

// TestSplitComponents: the node list is component-major in the order
// of each component's smallest node, ascending degree within a
// component (node order on a tie), and leaves isolated nodes out.
func TestSplitComponents(t *testing.T) {
	// Components {0,3,5} (a path 3-0-5), {1,6} and {4,7,8} (a star on
	// 8); node 2 is isolated.
	g := graph.Build(9, []graph.Edge{
		{U: 0, V: 3, W: 1}, {U: 0, V: 5, W: 1}, {U: 1, V: 6, W: 1}, {U: 4, V: 8, W: 1}, {U: 7, V: 8, W: 1},
	}, false)
	nodes, bounds := splitComponents(g)
	if want := []uint32{3, 5, 0, 1, 6, 4, 7, 8}; !reflect.DeepEqual(nodes, want) {
		t.Fatalf("order %v, want %v", nodes, want)
	}
	if want := []int{0, 3, 5, 8}; !reflect.DeepEqual(bounds, want) {
		t.Fatalf("bounds %v, want %v", bounds, want)
	}
}

// BenchmarkPageRankBundleInput times the solver alone on the
// measure-bundle input's five projections, one serial solve each per
// op, and reports the CG steps of each projection's largest component,
// summed (steps/op).
func BenchmarkPageRankBundleInput(b *testing.B) {
	gs := loadBundle(b)
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		steps = 0
		for _, g := range gs {
			_, k := PageRankIters(g, PageRankOptions{Par: par.Options{Workers: 1}})
			steps += k
		}
	}
	b.ReportMetric(float64(steps), "steps/op")
}

// TestGatherGroupsBitIdentical pins the four-row gather to a one-row
// loop, bit for bit, on the shapes that exercise its grouping: every
// remainder of a group of four, a hub whose long row is a group's tail,
// rows of one degree (no tails), isolated nodes between the others
// (groups of empty rows), and degrees that step by one between
// neighbouring rows (a tail on every longer row of a group). The degree
// order is cut into runs of every length from 1 to 9 and whole, since
// PageRankIters hands each worker its own run.
func TestGatherGroupsBitIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	r := rand.New(rand.NewSource(34))
	for n := 1; n <= 9; n++ {
		graphs[fmt.Sprintf("path-%d", n)] = pathGraph(n)
		graphs[fmt.Sprintf("random-%d", n)] = randomGraph(r, n, 2*n)
	}
	for n := 37; n <= 40; n++ {
		graphs[fmt.Sprintf("star-%d", n)] = starGraph(n)
	}
	for _, n := range []int{16, 17, 18, 19} {
		graphs[fmt.Sprintf("ring-%d", n)] = circulant(n, 1)
		graphs[fmt.Sprintf("ring4-%d", n)] = circulant(n, 2)
	}
	// Only even nodes have edges; every odd node is isolated.
	var even []graph.Edge
	for u := 0; u+2 < 30; u += 2 {
		even = append(even, graph.Edge{U: uint32(u), V: uint32(u + 2), W: 1})
		if u%6 == 0 && u+4 < 30 {
			even = append(even, graph.Edge{U: uint32(u), V: uint32(u + 4), W: 1})
		}
	}
	graphs["isolated-between"] = graph.Build(30, even, false)
	// Threshold graph: u~v iff u+v >= k, so node u has degree u or u-1
	// and sorted degrees step by one (one repeat in the middle).
	for _, k := range []int{13, 14, 21} {
		var edges []graph.Edge
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if u+v >= k {
					edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v), W: 1})
				}
			}
		}
		graphs[fmt.Sprintf("threshold-%d", k)] = graph.Build(k, edges, false)
	}
	for name, g := range graphs {
		n := g.NumNodes()
		off, adj, _, _ := g.CSR()
		order := degreeOrder(off)
		contrib := make([]float64, n)
		for v := range contrib {
			contrib[v] = r.Float64() / float64(1+r.Intn(7))
		}
		for _, bd := range [][2]float64{{0, 1}, {0.15 / float64(n), 0.85}} {
			base, d := bd[0], bd[1]
			want := make([]float64, n)
			for u := 0; u < n; u++ {
				sum := 0.0
				for _, v := range adj[off[u]:off[u+1]] {
					sum += contrib[v]
				}
				want[u] = base + d*sum
			}
			for run := 1; run <= n; run++ {
				if run > 9 && run < n {
					continue
				}
				got := make([]float64, n)
				for lo := 0; lo < n; lo += run {
					gatherGroups(off, adj, contrib, got, order[lo:min(lo+run, n)], base, d)
				}
				for u := range want {
					if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
						t.Fatalf("%s base=%v d=%v runs of %d: next[%d] = %x, one-row loop %x", name, base, d, run, u, math.Float64bits(got[u]), math.Float64bits(want[u]))
					}
				}
			}
		}
	}
}

// circulant joins every node to the k nodes on either side of it on a
// ring of n, so every node has degree 2k.
func circulant(n, k int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32((u + j) % n), W: 1})
		}
	}
	return graph.Build(n, edges, false)
}

func TestDegreeOrder(t *testing.T) {
	// Degrees 2 0 1 2 0 3: ascending degree, node order within one.
	off := []int64{0, 2, 2, 3, 5, 5, 8}
	want := []uint32{1, 4, 2, 0, 3, 5}
	if got := degreeOrder(off); !reflect.DeepEqual(got, want) {
		t.Fatalf("degreeOrder = %v, want %v", got, want)
	}
}
