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

	"hyperline/internal/graph"
)

// Options configures the eigensolver.
type Options struct {
	// Tol bounds the Ritz residual ‖Bx − θx‖ at which the solver stops
	// (default 1e-10), so the returned λ₂ lies within Tol of an
	// eigenvalue of L̂.
	Tol float64
	// MaxIter bounds the Lanczos steps, restarts included (default
	// 10000).
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

// basisBytes caps the Lanczos basis at ⌊basisBytes / 8n⌋ vectors of n
// float64s: past it the solver restarts, so a large graph never holds
// steps·n floats.
const basisBytes = 64 << 20

// NormalizedAlgebraicConnectivity returns λ₂ of the normalized
// Laplacian L̂ = I − D^{-1/2} A D^{-1/2} of the subgraph induced by the
// largest connected component of g (isolated nodes and smaller
// components are excluded, as is standard when reporting the
// connectivity of a fragmented s-line graph). Larger values mean the
// component is more strongly connected. Returns 0 when the largest
// component has fewer than 2 nodes.
//
// Implementation: eigenvalues of L̂ lie in [0, 2] and B = 2I − L̂ has
// the same eigenvectors with eigenvalues 2 − λ. B's top eigenvector is
// D^{1/2}·1 (eigenvalue 2, since the component is connected), so λ₂(L̂)
// is 2 − θ for the largest eigenvalue θ of B deflated against it. θ is
// found by Lanczos with full reorthogonalisation, stopped when the top
// Ritz pair's residual ‖Bx − θx‖ is at most opt.Tol. The solver is
// serial, starts from a fixed vector and takes no execution options, so
// the result is one value per graph.
func NormalizedAlgebraicConnectivity(g *graph.Graph, opt Options) float64 {
	lambda2, _ := NormalizedAlgebraicConnectivityIters(g, opt)
	return lambda2
}

// NormalizedAlgebraicConnectivityIters is
// NormalizedAlgebraicConnectivity that also reports how many Lanczos
// steps ran, restarts included, so a benchmark can tell a faster step
// from fewer of them.
func NormalizedAlgebraicConnectivityIters(g *graph.Graph, opt Options) (float64, int) {
	sub := LargestComponent(g)
	return normalizedLambda2Connected(sub, opt, basisCap(sub.NumNodes()))
}

// basisCap is how many Lanczos vectors of n float64s fit in basisBytes,
// and at least two.
func basisCap(n int) int {
	return max(2, basisBytes/(8*max(1, n)))
}

// LargestComponent returns the subgraph induced by the largest
// connected component of g (ties broken by smallest representative),
// read from g's held labelling (graph.Graph.Components). Node IDs are
// squeezed; the result is connected by construction, and empty when no
// component has an edge.
func LargestComponent(g *graph.Graph) *graph.Graph {
	cc := g.Components()
	// Components are listed by smallest node, so the first largest one
	// wins the tie.
	best := 0
	for j := 1; j < cc.Count(); j++ {
		if len(cc.Members(j)) > len(cc.Members(best)) {
			best = j
		}
	}
	if cc.Count() == 0 || len(cc.Members(best)) < 2 {
		return graph.Build(0, nil, false)
	}
	// Local IDs follow node order, so each row of the component,
	// renumbered, is still sorted: its CSR is the component's rows copied
	// in node order, with orig naming g's nodes as a squeezing build
	// would.
	off, adj, wgt, _ := g.CSR()
	orig := cc.Members(best)
	local := make([]uint32, g.NumNodes())
	half := int64(0)
	for i, u := range orig {
		local[u] = uint32(i)
		half += off[u+1] - off[u]
	}
	subOff := make([]int64, 1, len(orig)+1)
	subAdj := make([]uint32, 0, half)
	subWgt := make([]uint32, 0, half)
	for _, u := range orig {
		for _, v := range adj[off[u]:off[u+1]] {
			subAdj = append(subAdj, local[v])
		}
		subWgt = append(subWgt, wgt[off[u]:off[u+1]]...)
		subOff = append(subOff, int64(len(subAdj)))
	}
	sub, err := graph.FromCSR(len(orig), int(half/2), subOff, subAdj, subWgt, orig)
	if err != nil {
		panic(err) // a component's rows always frame a CSR
	}
	return sub
}

// normalizedLambda2Connected computes λ₂(L̂) of a connected graph and
// the number of Lanczos steps it took, holding at most maxBasis basis
// vectors. Each step multiplies by B once — z = D^{-1/2}x per node, then
// a plain gather over each CSR row — and orthogonalises the result
// against the whole basis, not just the last two vectors, so no ghost
// copies of converged Ritz values appear. A full basis without
// convergence restarts the recurrence from the current top Ritz vector.
func normalizedLambda2Connected(g *graph.Graph, opt Options, maxBasis int) (float64, int) {
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
	z := make([]float64, n)
	// applyB sets y = Bx = x + D^{-1/2} A D^{-1/2} x.
	applyB := func(x, y []float64) {
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
	}

	// Deterministic start vector, deflated against φ.
	x := make([]float64, n)
	for u := range x {
		x[u] = math.Sin(float64(u+1)) + 0.5
	}
	deflate(x, phi)
	normalize(x)

	// q[:k] is the orthonormal basis; alpha and beta are the diagonal and
	// off-diagonal of T = QᵀBQ. Vectors past k are kept for reuse after a
	// restart.
	q := [][]float64{x}
	k := 1
	var alpha, beta, s []float64
	var theta float64
	w := make([]float64, n)
	for steps := 1; ; steps++ {
		qj := q[k-1]
		applyB(qj, w)
		a := dot(qj, w)
		axpy(-a, qj, w)
		if k > 1 {
			axpy(-beta[k-2], q[k-2], w)
		}
		// Full reorthogonalisation, against φ too: the steps divide by β,
		// so rounding along φ, B's top eigenvector, would otherwise grow.
		for _, qi := range q[:k] {
			axpy(-dot(qi, w), qi, w)
		}
		deflate(w, phi)
		b := math.Sqrt(dot(w, w))
		alpha = append(alpha, a)
		theta, s = topRitz(alpha, beta, theta)
		// The top Ritz pair's residual is |b·s_k|. b = 0 means the basis
		// spans an invariant subspace (a single edge, K_n), and k = n−1
		// that it spans all of φ's complement: θ is exact either way.
		if math.Abs(b*s[k-1]) <= opt.Tol || k == n-1 || steps == opt.MaxIter {
			return min(max(2-theta, 0), 2), steps
		}
		if k == maxBasis {
			// Restart from the top Ritz vector Qs, built in w.
			clear(w)
			for i, si := range s {
				axpy(si, q[i], w)
			}
			normalize(w)
			copy(q[0], w)
			k = 1
			alpha, beta = alpha[:0], beta[:0]
			continue
		}
		beta = append(beta, b)
		if k == len(q) {
			q = append(q, make([]float64, n))
		}
		for i, wi := range w {
			q[k][i] = wi / b
		}
		k++
	}
}

// topRitz returns the largest eigenvalue θ of the symmetric tridiagonal
// T with diagonal alpha and positive off-diagonal beta, and a unit
// eigenvector s for it. lo must be the largest eigenvalue of T without
// its last row and column; it is ignored when T is 1×1.
//
// θ is the one root above lo of the last pivot D(x) of xI − T, which
// rises from −∞ just above lo to +∞ and is concave there: a Newton step
// from above, damped by the pole at lo, never passes lo, and plain
// Newton from below climbs monotonically to the root. s is one step of
// inverse iteration, a back substitution through the partially pivoted
// LU of T − θI, which stays accurate even where θ and lo agree to every
// bit and the pivots of xI − T do not.
func topRitz(alpha, beta []float64, lo float64) (float64, []float64) {
	k := len(alpha)
	if k == 1 {
		return alpha[0], []float64{1}
	}
	x := max(lo, alpha[k-1]) + beta[k-2] // θ is at most this (Weyl)
	for range 64 {
		f, df, ok := lastPivot(alpha, beta, x)
		if !ok || f == 0 {
			break
		}
		step := f / df
		if f > 0 {
			step = f / (df + f/(x-lo))
		}
		x -= step
		if math.Abs(step) <= 1e-15 {
			break
		}
	}

	// With T − θI = PLU, solve U s = 1: the start vector is P L·1.
	u := make([]float64, 4*k)
	u0, u1, u2, s := u[:k], u[k:2*k], u[2*k:3*k], u[3*k:]
	diag, sup := alpha[0]-x, beta[0]
	for i := 0; i < k-1; i++ {
		sub, next, nextSup := beta[i], alpha[i+1]-x, 0.0
		if i+2 < k {
			nextSup = beta[i+1]
		}
		if math.Abs(diag) >= sub {
			u0[i], u1[i] = diag, sup
			diag, sup = next-sub/diag*sup, nextSup
		} else {
			// Row i+1 pivots.
			u0[i], u1[i], u2[i] = sub, next, nextSup
			m := diag / sub
			diag, sup = sup-m*next, -m*nextSup
		}
	}
	if diag == 0 {
		diag = 0x1p-52 // T − θI is singular to the last bit
	}
	u0[k-1] = diag
	norm := 0.0
	for i := k - 1; i >= 0; i-- {
		v := 1.0
		if i+1 < k {
			v -= u1[i] * s[i+1]
		}
		if i+2 < k {
			v -= u2[i] * s[i+2]
		}
		s[i] = v / u0[i]
		norm += s[i] * s[i]
	}
	norm = math.Sqrt(norm)
	for i := range s {
		s[i] /= norm
	}
	return x, s
}

// lastPivot returns the last pivot of xI − T, D₁ = x − α₁,
// Dᵢ = x − αᵢ − βᵢ₋₁²/Dᵢ₋₁, and its derivative in x. ok is false when an
// earlier pivot is not positive: x is then not above the spectrum of T
// without its last row, not even by one rounding.
func lastPivot(alpha, beta []float64, x float64) (f, df float64, ok bool) {
	f, df = x-alpha[0], 1
	for i := 1; i < len(alpha); i++ {
		if f <= 0 {
			return 0, 0, false
		}
		t := beta[i-1] * beta[i-1] / f
		df = 1 + t*df/f
		f = x - alpha[i] - t
	}
	return f, df, true
}

// deflate removes x's component along the unit vector phi.
func deflate(x, phi []float64) { axpy(-dot(x, phi), phi, x) }

// dot sums in four interleaved partial sums, so the additions do not
// wait on one another.
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy sets y += a·x.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	for i, xi := range x {
		y[i] += a * xi
	}
}

func normalize(x []float64) {
	n := math.Sqrt(dot(x, x))
	for i := range x {
		x[i] /= n
	}
}
