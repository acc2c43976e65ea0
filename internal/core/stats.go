package core

// Stats reports the work counters of one s-overlap computation. They
// back the paper's Table I ("#set intersections") and Figure 10
// (per-thread visit counts).
type Stats struct {
	// SetIntersections is the number of explicit sorted-list
	// intersections performed. Always 0 for Algorithm 2 and the
	// ensemble — the headline property of the paper's method.
	SetIntersections int64
	// Wedges is the total number of wedge traversals (ei, vk, ej)
	// with ej > ei, i.e. the innermost-loop visit count.
	Wedges int64
	// WedgesPerWorker breaks Wedges down by worker; this is the
	// workload-balance data of Figure 10.
	WedgesPerWorker []int64
	// Pruned is the number of hyperedges skipped by degree-based
	// pruning. Empty rows the working hypergraph keeps (under relabel N
	// with squeezing, a tombstone) count too.
	Pruned int64
	// Edges is the number of s-line graph edges emitted.
	Edges int64
}

// add merges other into s.
func (s *Stats) add(other Stats) {
	s.SetIntersections += other.SetIntersections
	s.Wedges += other.Wedges
	s.Pruned += other.Pruned
	s.Edges += other.Edges
	if len(s.WedgesPerWorker) < len(other.WedgesPerWorker) {
		grown := make([]int64, len(other.WedgesPerWorker))
		copy(grown, s.WedgesPerWorker)
		s.WedgesPerWorker = grown
	}
	for i, w := range other.WedgesPerWorker {
		s.WedgesPerWorker[i] += w
	}
}
