package core

import "fmt"

// Fingerprint returns a canonical string identifying the *output class*
// of a pipeline run — the cache key component used by the serving layer
// to decide whether two requests may share a result.
//
// The key is canonicalized over output-equivalent configurations, not
// over raw option values. Every strategy — Algorithm 2, the ensemble,
// the planner (AlgoAuto), and Algorithm 1 in exact mode
// (DisableShortCircuit) — produces byte-identical sorted edge lists
// with exact overlap weights, so they all share the "exact" class. The
// single exception is Algorithm 1 with short-circuiting (its default),
// whose weights are ≥ s bounds rather than exact counts: it gets its
// own class.
//
// The remaining output-relevant fields are relabel-by-degree (it
// permutes the squeezed node ID space), toplex simplification, and
// squeezing. Execution-only knobs — Workers, Grain, Partition and
// DisablePruning — are deliberately excluded: the edge-assembly
// pipeline guarantees byte-identical output for any worker count or
// workload distribution, and pruning only skips hyperedges that cannot
// contribute edges. Requests that differ only in those knobs (or only
// in which exact-class strategy computes them) therefore share a cache
// entry.
// The planner-resolvable knobs (hg.RelabelAuto, ToplexAuto) must be
// resolved via ResolveConfig before fingerprinting: the serving layer
// does so at every entry point, which is what lets a planner-chosen
// configuration share a cache entry with the pinned configuration it
// resolves to (and split from the ones it does not). An unresolved
// auto knob fingerprints distinctly ("*" / "auto") rather than
// colliding with a concrete choice. The Stats, Costs, and KnobReason
// fields are execution hints and excluded.
func (c PipelineConfig) Fingerprint() string {
	class := "exact"
	if c.Core.Algorithm == AlgoSetIntersection && !c.Core.DisableShortCircuit {
		class = "shortcircuit"
	}
	return fmt.Sprintf("class=%s,relabel=%s,toplex=%s,squeeze=%t",
		class, c.Core.Relabel, c.Toplex, !c.NoSqueeze)
}
