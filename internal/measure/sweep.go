package measure

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"hyperline/internal/core"
	"hyperline/internal/par"
)

// Weight is a projection's scheduling weight for par.EachS: the CSR size,
// nodes + 2·edges, which is what one pass of any Stage-5 kernel reads.
func Weight(res *core.PipelineResult) int {
	return res.Graph.NumNodes() + 2*res.Graph.NumEdges()
}

// ComputeSweep evaluates m on every projection of a sweep through par.EachS
// and returns, by index, each value or the error that took its place.
func ComputeSweep(ctx context.Context, m Measure, p Params, sweep []*core.PipelineResult, budget par.Options) ([]*Value, []error) {
	vals := make([]*Value, len(sweep))
	errs := make([]error, len(sweep))
	par.EachS(len(sweep), budget, func(i int) int { return Weight(sweep[i]) }, func(i int, inner par.Options) {
		vals[i], errs[i] = m.Compute(ctx, sweep[i], p, inner)
	})
	return vals, errs
}

// SweepRow is one s value of an s-sweep: the projection's shape plus
// the measure value computed on it.
type SweepRow struct {
	S     int
	Nodes int
	Edges int
	// HyperedgeIDs maps projection nodes to input hyperedge IDs
	// (needed to label per-node vectors; may be nil for scalar
	// measures).
	HyperedgeIDs []uint32
	Value        *Value
}

// WriteSweepTable renders an s-sweep as the tab-separated tables the
// paper's application sections report (Tables I and V are s-sweeps of
// exactly this shape). Scalar measures print one row per s; per-node
// measures print the top-K nodes per s, ranked by descending value with
// ties broken by ascending hyperedge ID. The output is
// byte-deterministic for a given sweep — the golden-file tests pin it
// as the repo's end-to-end paper-fidelity guard.
func WriteSweepTable(w io.Writer, measureName string, params Params, topK int, rows []SweepRow) error {
	if topK <= 0 {
		topK = 5
	}
	header := fmt.Sprintf("# measure=%s", measureName)
	if ps := params.CanonicalString(); ps != "" {
		header += " params=" + ps
	}
	sorted := append([]SweepRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].S < sorted[j].S })

	scalarShape := true
	for _, r := range sorted {
		if r.Value != nil && r.Value.Scalar == nil {
			scalarShape = false
		}
	}
	if scalarShape {
		if _, err := fmt.Fprintf(w, "%s\ns\tnodes\tedges\t%s\n", header, measureName); err != nil {
			return err
		}
		for _, r := range sorted {
			v := 0.0
			if r.Value != nil && r.Value.Scalar != nil {
				v = *r.Value.Scalar
			}
			if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", r.S, r.Nodes, r.Edges, formatNum(v)); err != nil {
				return err
			}
		}
		return nil
	}

	if _, err := fmt.Fprintf(w, "%s top=%d\ns\tnodes\tedges\trank\thyperedge\t%s\n", header, topK, measureName); err != nil {
		return err
	}
	for _, r := range sorted {
		for rank, e := range topEntries(r, topK) {
			if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\n",
				r.S, r.Nodes, r.Edges, rank+1, e.id, formatNum(e.score)); err != nil {
				return err
			}
		}
	}
	return nil
}

type sweepEntry struct {
	id    uint32
	score float64
}

// topEntries ranks a per-node vector by descending value, ties broken
// by ascending hyperedge ID, and returns the first k entries.
func topEntries(r SweepRow, k int) []sweepEntry {
	if r.Value == nil {
		return nil
	}
	var entries []sweepEntry
	switch {
	case r.Value.Scores != nil:
		entries = make([]sweepEntry, len(r.Value.Scores))
		for u, s := range r.Value.Scores {
			entries[u] = sweepEntry{id: nodeID(r, u), score: s}
		}
	case r.Value.Ints != nil:
		entries = make([]sweepEntry, len(r.Value.Ints))
		for u, s := range r.Value.Ints {
			entries[u] = sweepEntry{id: nodeID(r, u), score: float64(s)}
		}
	default:
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].score != entries[j].score {
			return entries[i].score > entries[j].score
		}
		return entries[i].id < entries[j].id
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

func nodeID(r SweepRow, u int) uint32 {
	if u < len(r.HyperedgeIDs) {
		return r.HyperedgeIDs[u]
	}
	return uint32(u)
}

// formatNum renders a value compactly and deterministically: integral
// values print without a fractional part (component counts, diameters),
// everything else with 6 fractional digits.
func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 6, 64)
}
