// Package spgemm implements the sparse general matrix-matrix
// multiplication (SpGEMM) baseline the paper compares against in
// §VI-G: a Gustavson row-wise CSR SpGEMM that computes the hyperedge
// adjacency matrix L = HᵀH, followed by an s-filtration extracting the
// s-line graph edge list.
//
// Two variants mirror the paper's Figure 11: Filter computes and
// materializes the full product before filtering, and FilterUpper
// restricts accumulation to the upper triangle (half the work), as the
// authors' modified SpGEMM library does. Both must materialize the
// product matrix — the structural disadvantage versus Algorithm 2,
// which filters on the fly and stores nothing.
package spgemm

import (
	"fmt"
	"sort"

	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// Matrix is a sparse matrix in CSR form with uint32 integer values.
type Matrix struct {
	Rows, Cols int
	Off        []int64
	Col        []uint32
	Val        []uint32
}

// Row returns the column indices and values of row i.
func (m *Matrix) Row(i int) ([]uint32, []uint32) {
	lo, hi := m.Off[i], m.Off[i+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// EdgeView returns Hᵀ as a CSR matrix: rows are hyperedges, columns
// are vertices, all values 1.
func EdgeView(h *hg.Hypergraph) *Matrix {
	m := &Matrix{Rows: h.NumEdges(), Cols: h.NumVertices()}
	m.Off = make([]int64, m.Rows+1)
	for e := 0; e < m.Rows; e++ {
		m.Off[e+1] = m.Off[e] + int64(h.EdgeSize(uint32(e)))
	}
	m.Col = make([]uint32, m.Off[m.Rows])
	m.Val = make([]uint32, m.Off[m.Rows])
	for e := 0; e < m.Rows; e++ {
		copy(m.Col[m.Off[e]:], h.EdgeVertices(uint32(e)))
		for k := m.Off[e]; k < m.Off[e+1]; k++ {
			m.Val[k] = 1
		}
	}
	return m
}

// VertexView returns H as a CSR matrix: rows are vertices, columns are
// hyperedges, all values 1. VertexView(h) is the transpose of
// EdgeView(h).
func VertexView(h *hg.Hypergraph) *Matrix {
	return EdgeView(h.Dual())
}

// Multiply computes C = A·B with Gustavson's row-wise algorithm,
// parallel over the rows of A, using one dense accumulator (SPA) per
// worker. Column order within each output row follows first-touch
// order, as is conventional for Gustavson SpGEMM.
func Multiply(a, b *Matrix, opt par.Options) (*Matrix, error) {
	return multiply(a, b, opt, false)
}

// MultiplyUpper computes only the strict upper triangle of C = A·B
// (entries with column > row). A must be square-compatible with the
// output (Rows(A) and Cols(B) index the same space), which holds for
// L = HᵀH.
func MultiplyUpper(a, b *Matrix, opt par.Options) (*Matrix, error) {
	return multiply(a, b, opt, true)
}

func multiply(a, b *Matrix, opt par.Options, upper bool) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("spgemm: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	rows := a.Rows
	w := opt.EffectiveWorkers()
	type spa struct {
		val     []uint32
		touched []uint32
	}
	spas := make([]*spa, w)
	outCols := make([][]uint32, rows)
	outVals := make([][]uint32, rows)

	par.For(rows, opt, func(worker, i int) {
		sp := spas[worker]
		if sp == nil {
			sp = &spa{val: make([]uint32, b.Cols)}
			spas[worker] = sp
		}
		touched := sp.touched[:0]
		aCols, aVals := a.Row(i)
		for k, ak := range aCols {
			av := aVals[k]
			bCols, bVals := b.Row(int(ak))
			for t, j := range bCols {
				if upper && int(j) <= i {
					continue
				}
				if sp.val[j] == 0 {
					touched = append(touched, j)
				}
				sp.val[j] += av * bVals[t]
			}
		}
		cols := make([]uint32, len(touched))
		vals := make([]uint32, len(touched))
		for t, j := range touched {
			cols[t] = j
			vals[t] = sp.val[j]
			sp.val[j] = 0
		}
		outCols[i], outVals[i] = cols, vals
		sp.touched = touched
	})

	c := &Matrix{Rows: rows, Cols: b.Cols, Off: make([]int64, rows+1)}
	for i := 0; i < rows; i++ {
		c.Off[i+1] = c.Off[i] + int64(len(outCols[i]))
	}
	c.Col = make([]uint32, c.Off[rows])
	c.Val = make([]uint32, c.Off[rows])
	for i := 0; i < rows; i++ {
		copy(c.Col[c.Off[i]:], outCols[i])
		copy(c.Val[c.Off[i]:], outVals[i])
	}
	return c, nil
}

// FilterS extracts the s-line graph edge list from the (full or upper)
// hyperedge adjacency matrix L = HᵀH: off-diagonal entries with value
// ≥ s, reported once per unordered pair with U < V, sorted.
func FilterS(l *Matrix, s int) []graph.Edge {
	if s < 1 {
		s = 1
	}
	var edges []graph.Edge
	for i := 0; i < l.Rows; i++ {
		cols, vals := l.Row(i)
		for k, j := range cols {
			if int(j) <= i {
				continue // diagonal (edge size) and lower triangle
			}
			if int(vals[k]) >= s {
				edges = append(edges, graph.Edge{U: uint32(i), V: j, W: vals[k]})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// SLineFilter computes the s-line graph edge list via full SpGEMM +
// filtration ("SpGEMM+Filter" in Figure 11): L = HᵀH is materialized in
// full, then filtered.
func SLineFilter(h *hg.Hypergraph, s int, opt par.Options) ([]graph.Edge, error) {
	l, err := Multiply(EdgeView(h), VertexView(h), opt)
	if err != nil {
		return nil, err
	}
	return FilterS(l, s), nil
}

// SLineFilterUpper computes the s-line graph edge list via
// upper-triangular SpGEMM + filtration ("SpGEMM+Filter+Upper" in
// Figure 11): only entries above the diagonal are accumulated and
// materialized, halving the multiply work.
func SLineFilterUpper(h *hg.Hypergraph, s int, opt par.Options) ([]graph.Edge, error) {
	l, err := MultiplyUpper(EdgeView(h), VertexView(h), opt)
	if err != nil {
		return nil, err
	}
	return FilterS(l, s), nil
}
