package core

import (
	"context"
	"time"

	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/par"
	"hyperline/internal/toplex"
)

// PipelineConfig configures an end-to-end run of the paper's five-stage
// s-line graph framework (§IV).
type PipelineConfig struct {
	// Core selects the s-overlap strategy (or the planner, AlgoAuto)
	// and execution knobs; Core.Relabel drives Stage 1's
	// relabel-by-degree.
	Core Config
	// Toplex runs Stage 2, toplex simplification, before computing
	// s-overlaps; off by default.
	Toplex bool
	// NoSqueeze disables Stage 4's ID squeezing, keeping the (often
	// hypersparse) hyperedge ID space as graph node IDs.
	NoSqueeze bool

	// Stats optionally supplies precomputed statistics of the input
	// hypergraph (the serving layer caches them per dataset version).
	// When nil, the planner computes them on demand. Stats are an
	// execution hint and never part of the cache key (OutputKey).
	Stats *hg.Stats
}

// StageTimings records wall-clock time per pipeline stage — the rows of
// the paper's Table I. Squeeze is one s's own build: the builds of a
// sweep may run side by side, so per-s Squeeze values of one batch do
// not add up to the batch's wall time.
type StageTimings struct {
	Preprocess time.Duration // Stage 1: cleanup + relabel-by-degree (a no-op under relabel N with squeezing; only the order scan when the order is the identity)
	Toplex     time.Duration // Stage 2 (optional)
	SOverlap   time.Duration // Stage 3: the s-line edge list (dominant)
	Squeeze    time.Duration // Stage 4: ID squeezing + graph build of this s alone
}

// Total sums all stages.
func (t StageTimings) Total() time.Duration {
	return t.Preprocess + t.Toplex + t.SOverlap + t.Squeeze
}

// PlanInfo records which strategy the planner executed for a pipeline
// run, why, and which preprocessing knobs it ran under — the serving
// layer surfaces it for observability.
type PlanInfo struct {
	Strategy string
	Reason   string
	// Relabel is the Stage-1 order the run executed ("N", "A", or "D").
	Relabel string
	// Toplex reports whether Stage-2 simplification ran.
	Toplex bool
}

// PipelineResult is the output of a pipeline run: the s-line graph with
// node IDs mapped back to the input hypergraph's hyperedge IDs, plus
// work statistics, per-stage timings, and the executed plan.
type PipelineResult struct {
	S     int
	Graph *graph.Graph
	// HyperedgeIDs maps each graph node to the hyperedge ID in the
	// *input* hypergraph (undoing squeezing, toplex selection, and
	// relabeling). A patched result leaves it nil: read IDs.
	HyperedgeIDs []uint32
	Stats        Stats
	Timings      StageTimings
	Plan         PlanInfo
}

// IDs returns HyperedgeIDs. A patched result holds none of its own:
// under relabel N with squeezing its input IDs are its graph's squeeze
// map, which a deferred graph reads through its pending rewrite and
// expands on the first call, once for every reader (graph.OrigIDs).
func (r *PipelineResult) IDs() []uint32 {
	if r.HyperedgeIDs == nil && r.Graph != nil {
		return r.Graph.OrigIDs()
	}
	return r.HyperedgeIDs
}

// HyperedgeID returns the input-hypergraph hyperedge represented by a
// graph node.
func (r *PipelineResult) HyperedgeID(node uint32) uint32 {
	return r.IDs()[node]
}

// prepared is the Stage 1-2 output shared by every s of a batch.
type prepared struct {
	work *hg.Hypergraph
	// edgeOrig[w] is the input ID of working hyperedge w; nil when the
	// working IDs are the input IDs.
	edgeOrig []uint32
	preTime  time.Duration
	topTime  time.Duration
}

// inputID returns the input ID of working hyperedge w.
func (p *prepared) inputID(w uint32) uint32 {
	if p.edgeOrig == nil {
		return w
	}
	return p.edgeOrig[w]
}

// prepare runs Stage 1 (preprocess + relabel) and Stage 2 (optional
// toplex simplification) once for a whole query.
//
// Under relabel N with squeezing on, Stage 1 does not run: h itself is
// the working hypergraph and the working IDs are the input IDs. Stage 1
// would keep the remaining rows in ID order, and Stage 4's squeezing
// numbers only hyperedges that have an s-line edge, in working-ID
// order, so compacting empty rows and isolated vertices changes no
// output. Under relabel A or D, or with squeezing off, the order or the
// node space sees the compaction, and Stage 1 runs unless its working
// order is the identity (no empty row, and rows already in the
// requested order), when it would only compact isolated vertices, whose
// IDs reach no output. Keeping h also keeps its Stage-3 position array
// (hg.Hypergraph.Positions), which is built once per hypergraph: a
// compacted copy would build its own on every query.
func prepare(h *hg.Hypergraph, cfg PipelineConfig) prepared {
	t0 := time.Now()
	p := prepared{work: h}
	if cfg.Core.Relabel != hg.RelabelNone || cfg.NoSqueeze {
		p.edgeOrig = hg.EdgeOrder(h, cfg.Core.Relabel)
		if !isIdentity(p.edgeOrig, h.NumEdges()) {
			p.work = hg.PreprocessOrder(h, p.edgeOrig).H
		}
	}
	p.preTime = time.Since(t0)

	if cfg.Toplex {
		t1 := time.Now()
		simplified, keep := toplex.Simplify(p.work)
		p.topTime = time.Since(t1)
		p.work = simplified
		for newE, midE := range keep {
			keep[newE] = p.inputID(midE)
		}
		p.edgeOrig = keep
	}
	return p
}

// isIdentity reports whether order lists 0..m-1 in sequence.
func isIdentity(order []uint32, m int) bool {
	if len(order) != m {
		return false
	}
	for i, e := range order {
		if e != uint32(i) {
			return false
		}
	}
	return true
}

// planningStats returns the statistics the strategy planner consults
// for a configuration, reusing caller-supplied stats when they
// still describe the hypergraph Stage 3 will actually see: toplex
// simplification changes the degree structure, so after Stage 2 the
// stats are recomputed on the simplified hypergraph. Returns zero stats
// when the decision does not need them (fully pinned single-s queries).
func planningStats(p prepared, sValues []int, cfg PipelineConfig) hg.Stats {
	need := cfg.Core.Algorithm == AlgoAuto ||
		(cfg.Core.Algorithm == AlgoHashmap && len(DistinctS(sValues)) > 1)
	if !need {
		return hg.Stats{}
	}
	if !cfg.Toplex && cfg.Stats != nil {
		return *cfg.Stats
	}
	return hg.ComputeStats("", p.work)
}

// RunBatch executes Stages 1-4 for every distinct s in sValues (clamped
// to ≥ 1) as one planned query: preprocessing and toplex
// simplification run once, the planner resolves the s-overlap strategy
// from the hypergraph's statistics and the batch shape (PlanQuery), and
// Stage 4 builds one graph per s, the builds of a sweep sharing the
// worker budget through par.EachS. The result maps each distinct
// clamped s to its projection.
//
// Cancellation is cooperative: the pipeline checks ctx between stages
// and the Stage-3 strategies poll it inside their worker loops, so a
// cancelled or expired context aborts within roughly one worker
// iteration plus the Stage-4 builds already started, and RunBatch
// returns ctx.Err(). A nil ctx is treated as context.Background().
//
// Stage timings on each result share the pipeline-wide preprocessing
// and s-overlap costs; squeeze time is that s's own build, and builds
// of one batch may overlap. Stats are aggregated
// across the batch (multi-s strategies may share one counting pass).
func RunBatch(ctx context.Context, h *hg.Hypergraph, sValues []int, cfg PipelineConfig) (map[int]*PipelineResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := map[int]*PipelineResult{}
	if len(sValues) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := prepare(h, cfg)
	// Checkpoint between Stages 1-2 and Stage 3.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	distinct := DistinctS(sValues)
	dec := PlanQuery(planningStats(p, sValues, cfg), sValues, cfg.Core)
	t2 := time.Now()
	lists, stats, err := dec.Strategy.Edges(ctx, p.work, sValues, dec.Config)
	if err != nil {
		return nil, err
	}
	overlapTime := time.Since(t2)
	plan := dec.Info()
	plan.Relabel = cfg.Core.Relabel.String()
	plan.Toplex = cfg.Toplex

	// Stage 4: one graph per s, scheduled like a Stage-5 sweep — the
	// builds share the worker budget by edge count, a single s (or a
	// budget of one) builds inline with the whole budget. Each build
	// checks ctx before it starts and writes only its own slot.
	results := make([]*PipelineResult, len(distinct))
	weight := func(i int) int { return len(lists[distinct[i]]) }
	par.EachS(len(distinct), cfg.Core.parOptions(), weight, func(i int, inner par.Options) {
		if ctx.Err() != nil {
			return
		}
		t3 := time.Now()
		// Every registered strategy emits each list sorted and deduped
		// with U < V, so Stage 4 takes the zero-copy path.
		g := graph.BuildSorted(p.work.NumEdges(), lists[distinct[i]], !cfg.NoSqueeze, inner)
		squeeze := time.Since(t3)
		r := &PipelineResult{
			S:     distinct[i],
			Graph: g,
			Stats: stats,
			Timings: StageTimings{
				Preprocess: p.preTime,
				Toplex:     p.topTime,
				SOverlap:   overlapTime,
				Squeeze:    squeeze,
			},
			Plan: plan,
		}
		r.HyperedgeIDs = make([]uint32, g.NumNodes())
		for node := 0; node < g.NumNodes(); node++ {
			r.HyperedgeIDs[node] = p.inputID(g.OrigID(uint32(node)))
		}
		results[i] = r
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range results {
		out[r.S] = r
	}
	return out, nil
}
