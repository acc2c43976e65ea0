package core

import (
	"fmt"

	"hyperline/internal/hg"
)

// OutputKey names the output of one projection: orientation, s, and
// every configuration field that changes the bytes a run produces. Runs
// with equal keys over one hypergraph produce byte-identical results,
// so the serving layer caches projections under it and the incremental
// patcher decides on it.
//
// The key is canonicalized over output-equivalent configurations, not
// over raw option values. Every strategy — Algorithm 2, the ensemble,
// the planner (AlgoAuto), and Algorithm 1 in exact mode
// (DisableShortCircuit) — produces byte-identical sorted edge lists
// with exact overlap weights, so they all share Exact. The single
// exception is Algorithm 1 with short-circuiting (its default), whose
// weights are ≥ s bounds rather than exact counts. Execution-only knobs
// (Workers, Grain, Partition, DisablePruning) and the Stats hint are
// absent: output is byte-identical for any of their values.
type OutputKey struct {
	Dual    bool // the clique orientation (the dual's s-line graph)
	S       int
	Exact   bool // every strategy but short-circuiting Algorithm 1
	Relabel hg.RelabelOrder
	Toplex  ToplexMode
	Squeeze bool
}

// OutputKey returns the key of the projection c computes at s in the
// given orientation.
func (c PipelineConfig) OutputKey(dual bool, s int) OutputKey {
	return OutputKey{
		Dual:    dual,
		S:       s,
		Exact:   c.Core.Algorithm != AlgoSetIntersection || c.Core.DisableShortCircuit,
		Relabel: c.Core.Relabel,
		Toplex:  c.Toplex,
		Squeeze: !c.NoSqueeze,
	}
}

// String is the key's one text form,
// "line/s=3/class=exact,relabel=N,toplex=false,squeeze=true".
func (k OutputKey) String() string {
	orient, class := "line", "exact"
	if k.Dual {
		orient = "clique"
	}
	if !k.Exact {
		class = "shortcircuit"
	}
	return fmt.Sprintf("%s/s=%d/class=%s,relabel=%s,toplex=%s,squeeze=%t",
		orient, k.S, class, k.Relabel, k.Toplex, k.Squeeze)
}
