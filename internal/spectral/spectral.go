// Package spectral implements the spectral analysis layer of the
// framework: the normalized Laplacian of a graph and its normalized
// algebraic connectivity (the second-smallest eigenvalue λ₂), which the
// paper uses on ensembles of s-line graphs to quantify how strongly the
// connected components of each Ls(H) remain connected (Fig. 6).
//
// The paper argues (§I) that no simple eigenvalue-preserving relation
// links the rectangular incidence matrix H to the s-line graph spectra,
// which is why the s-line graphs must be materialized first; this
// package is the stage applied after materialization.
package spectral

import (
	"math"

	"hyperline/internal/algo"
	"hyperline/internal/graph"
	"hyperline/internal/par"
)

// Options configures the eigensolver.
type Options struct {
	// Tol is the convergence tolerance on the Rayleigh-quotient
	// residual (default 1e-10).
	Tol float64
	// MaxIter bounds the power-iteration count (default 10000).
	MaxIter int
}

func (o Options) defaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	return o
}

// NormalizedAlgebraicConnectivity returns λ₂ of the normalized
// Laplacian L̂ = I − D^{-1/2} A D^{-1/2} of the subgraph induced by the
// largest connected component of g (isolated nodes and smaller
// components are excluded, as is standard when reporting the
// connectivity of a fragmented s-line graph). Larger values mean the
// component is more strongly connected. Returns 0 when the largest
// component has fewer than 2 nodes.
//
// Implementation: eigenvalues of L̂ lie in [0, 2] and B = 2I − L̂ has
// the same eigenvectors with eigenvalues 2 − λ, so λ₂(L̂) is found by
// power iteration on B after deflating B's known top eigenvector
// D^{1/2}·1 (eigenvalue 2, since the component is connected). The
// iteration is serial and takes no execution options, so the result is
// one value per graph; see normalizedLambda2Connected for why it equals,
// bit for bit, a mat-vec that multiplies per edge.
func NormalizedAlgebraicConnectivity(g *graph.Graph, opt Options) float64 {
	lambda2, _ := NormalizedAlgebraicConnectivityIters(g, opt)
	return lambda2
}

// NormalizedAlgebraicConnectivityIters is
// NormalizedAlgebraicConnectivity that also reports how many power
// iterations ran, so a benchmark can tell a faster iteration from fewer
// of them.
func NormalizedAlgebraicConnectivityIters(g *graph.Graph, opt Options) (float64, int) {
	return normalizedLambda2Connected(LargestComponent(g), opt)
}

// LargestComponent returns the subgraph induced by the largest
// connected component of g (ties broken by smallest representative).
// Node IDs are squeezed; the result is connected by construction, and
// empty when no component has an edge.
func LargestComponent(g *graph.Graph) *graph.Graph {
	cc := algo.ConnectedComponents(g)
	// A label is its component's smallest node, so sizes index by label
	// and the first largest one wins the tie.
	sizes := make([]int32, g.NumNodes())
	for _, l := range cc.Label {
		sizes[l]++
	}
	best := 0
	for l, n := range sizes {
		if n > sizes[best] {
			best = l
		}
	}
	if len(sizes) == 0 || sizes[best] < 2 {
		return graph.Build(0, nil, false)
	}
	// The component's CSR rows in node order list its edges (U, V)-sorted
	// and unique, which is BuildSorted's contract.
	off, adj, wgt, _ := g.CSR()
	edges := make([]graph.Edge, 0, g.NumEdges())
	for u, l := range cc.Label {
		if l != uint32(best) {
			continue
		}
		for k := off[u]; k < off[u+1]; k++ {
			if v := adj[k]; uint32(u) < v {
				edges = append(edges, graph.Edge{U: uint32(u), V: v, W: wgt[k]})
			}
		}
	}
	return graph.BuildSorted(g.NumNodes(), edges, true, par.Options{Workers: 1})
}

// normalizedLambda2Connected computes λ₂(L̂) of a connected graph and
// the number of power iterations it took. The loop is serial — an
// s-sweep runs its s values side by side instead (par.EachS) — and
// each iteration scales x once per node, z = D^{-1/2}x, so the mat-vec's
// inner loop is a plain gather over the CSR row: the same products summed
// in the same order as multiplying per edge.
func normalizedLambda2Connected(g *graph.Graph, opt Options) (float64, int) {
	opt = opt.defaults()
	n := g.NumNodes()
	if n < 2 {
		return 0, 0
	}
	off, adj, _, _ := g.CSR()
	// φ = D^{1/2}·1 normalized — the top eigenvector of B = 2I − L̂.
	phi := make([]float64, n)
	invSqrtDeg := make([]float64, n)
	var norm float64
	for u := range phi {
		d := float64(off[u+1] - off[u])
		phi[u] = math.Sqrt(d)
		invSqrtDeg[u] = 1 / math.Sqrt(d)
		norm += d
	}
	norm = math.Sqrt(norm)
	for u := range phi {
		phi[u] /= norm
	}

	// Deterministic start vector, deflated against φ.
	x := make([]float64, n)
	for u := range x {
		x[u] = math.Sin(float64(u+1)) + 0.5
	}
	deflate(x, phi)
	normalize(x)

	y := make([]float64, n)
	z := make([]float64, n)
	var mu float64
	iters := 0
	for iters < opt.MaxIter {
		iters++
		// y = Bx = x + D^{-1/2} A D^{-1/2} x.
		for v, xv := range x {
			z[v] = invSqrtDeg[v] * xv
		}
		for u := range y {
			sum := 0.0
			for _, v := range adj[off[u]:off[u+1]] {
				sum += z[v]
			}
			y[u] = x[u] + invSqrtDeg[u]*sum
		}
		deflate(y, phi)
		// Rayleigh quotient μ = xᵀBx (x is unit).
		newMu := dot(x, y)
		ynorm := normalize(y)
		if ynorm == 0 {
			// x lies in the kernel of the deflated operator:
			// λ₂(L̂) = 2 exactly (e.g. a single edge).
			return 2, iters
		}
		x, y = y, x
		if iters > 1 && math.Abs(newMu-mu) < opt.Tol {
			mu = newMu
			break
		}
		mu = newMu
	}
	lambda2 := 2 - mu
	if lambda2 < 0 {
		lambda2 = 0
	}
	return lambda2, iters
}

func deflate(x, phi []float64) {
	p := dot(x, phi)
	for i := range x {
		x[i] -= p * phi[i]
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normalize(x []float64) float64 {
	n := math.Sqrt(dot(x, x))
	if n == 0 {
		return 0
	}
	for i := range x {
		x[i] /= n
	}
	return n
}
