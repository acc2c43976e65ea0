package core

import (
	"fmt"

	"hyperline/internal/hg"
)

// Planner cost-model constants. The planner reasons in bytes because
// the regime boundary the paper observes (§VI-C) is a memory cliff, not
// an instruction-count crossover: Algorithm 3 materializes one counter
// per wedge pair.
const (
	// ensembleBytesPerCounter is the cost of one materialized overlap
	// counter in Algorithm 3's pruned counter set (one Edge: U, V, W).
	ensembleBytesPerCounter = 12
	// ensembleCounterBudget caps the memory the planner will let
	// Algorithm 3 spend on materialized counters before falling back
	// to per-s Algorithm 2 passes.
	ensembleCounterBudget = 2 << 30
)

// Decision is the planner's resolved execution plan for one query: the
// strategy to run, the configuration to run it with (Algorithm pinned
// to the strategy's tag), and the reason, for observability.
type Decision struct {
	Strategy Strategy
	Config   Config
	Reason   string
}

// Info condenses the decision into the pipeline-result form.
func (d Decision) Info() PlanInfo {
	return PlanInfo{Strategy: d.Strategy.Name(), Reason: d.Reason}
}

// PlanQuery resolves the strategy for one query from the hypergraph's
// statistics (st), the requested s values, and cfg. It is a pure
// function of its three inputs: no clock, no observed costs.
//
// Pinned algorithms (cfg.Algorithm != AlgoAuto) are honored, with one
// exception: a batched AlgoHashmap query whose counter memory fits the
// budget is coalesced into a single ensemble pass, which produces
// byte-identical output for a fraction of the counting work. Algorithm
// 1 batches always run per s — its short-circuited weights depend on s
// and no other strategy can reproduce them.
//
// For AlgoAuto the planner chooses between the two exact-weight
// strategies (Algorithm 2, Algorithm 3), so the output — and therefore
// the cache key — is independent of the decision:
//
//   - multi-s batches run as one ensemble counting pass when the
//     estimated counter memory (st.WedgePairs) fits the budget, and as
//     per-s hashmap passes otherwise;
//   - everything else takes Algorithm 2, whose wedge-linear cost is
//     the floor among exact strategies. Algorithm 1 is never chosen:
//     exact mode performs the same wedge traversal plus the
//     intersections, and short-circuit mode changes the output class.
func PlanQuery(st hg.Stats, sValues []int, cfg Config) Decision {
	distinct := DistinctS(sValues)
	multi := len(distinct) > 1

	switch cfg.Algorithm {
	case AlgoSetIntersection:
		return pin(cfg, AlgoSetIntersection,
			"pinned Algorithm 1: per-s passes preserve its weight semantics")
	case AlgoEnsemble:
		return pin(cfg, AlgoEnsemble, "pinned Algorithm 3")
	case AlgoHashmap:
		if multi && ensembleFits(st) {
			return pin(cfg, AlgoEnsemble,
				fmt.Sprintf("batched Algorithm 2 query coalesced into one ensemble pass (%d s values, identical output)", len(distinct)))
		}
		return pin(cfg, AlgoHashmap, "pinned Algorithm 2")
	}

	// AlgoAuto: choose between the exact-weight strategies.
	if multi {
		if ensembleFits(st) {
			return pin(cfg, AlgoEnsemble,
				fmt.Sprintf("multi-s batch (%d values): one ensemble counting pass, ~%d counters fit the budget", len(distinct), st.WedgePairs))
		}
		return pin(cfg, AlgoHashmap,
			fmt.Sprintf("multi-s batch, but ~%d materialized counters exceed the ensemble budget; per-s hashmap passes", st.WedgePairs))
	}
	if s := distinct[0]; st.MaxEdgeSize > 0 && s > st.MaxEdgeSize {
		return pin(cfg, AlgoHashmap,
			fmt.Sprintf("s=%d exceeds the largest hyperedge (%d): pruning makes the result trivially empty", s, st.MaxEdgeSize))
	}
	return pin(cfg, AlgoHashmap, "single-s query: hashmap counting is the exact-weight cost floor")
}

// pin resolves cfg onto the strategy implementing a, one of the three
// tags of the strategies table.
func pin(cfg Config, a Algorithm, reason string) Decision {
	cfg.Algorithm = a
	return Decision{Strategy: strategies[a-1], Config: cfg, Reason: reason}
}

// ensembleFits reports whether Algorithm 3's materialized counters
// (bounded by the wedge-pair count) fit the planner's memory budget.
// The comparison divides the budget rather than multiplying the count
// so extreme degree distributions cannot overflow into "fits".
func ensembleFits(st hg.Stats) bool {
	return st.WedgePairs <= ensembleCounterBudget/ensembleBytesPerCounter
}

// planFor is the pipeline-internal entry: it computes dataset
// statistics only when the decision actually needs them (AlgoAuto, or
// a pinned-hashmap batch that may coalesce into an ensemble pass).
func planFor(h *hg.Hypergraph, sValues []int, cfg Config) Decision {
	var st hg.Stats
	if cfg.Algorithm == AlgoAuto ||
		(cfg.Algorithm == AlgoHashmap && len(DistinctS(sValues)) > 1) {
		st = hg.ComputeStats("", h)
	}
	return PlanQuery(st, sValues, cfg)
}
