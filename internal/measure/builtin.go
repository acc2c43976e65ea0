package measure

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"hyperline/internal/algo"
	"hyperline/internal/core"
	"hyperline/internal/par"
	"hyperline/internal/spectral"
)

// builtin implements Measure for the registry entries below: one struct
// with a compute closure instead of a named type per measure.
type builtin struct {
	name    string
	doc     string
	params  []ParamSpec
	cost    Cost
	compute func(ctx context.Context, res *core.PipelineResult, p Params, opt par.Options) (*Value, error)
}

func (b *builtin) Name() string        { return b.name }
func (b *builtin) Doc() string         { return b.doc }
func (b *builtin) Params() []ParamSpec { return b.params }
func (b *builtin) Cost() Cost          { return b.cost }

// Compute checks the context on entry — a request that was cancelled
// while its projection was being fetched never starts evaluating — and
// then runs the closure. Only pagerank polls ctx inside (its step count
// grows without bound as the damping nears 1); the other built-ins run
// to completion, the expensive all-pairs ones bounded by the projection
// size the caller already chose to materialize.
func (b *builtin) Compute(ctx context.Context, res *core.PipelineResult, p Params, opt par.Options) (*Value, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.compute(ctx, res, p, opt)
}

// canonUint32 validates a non-negative integer parameter < 2³² and
// normalizes its spelling.
func canonUint32(v string) (string, error) {
	n, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return "", fmt.Errorf("want a hyperedge ID (integer in [0, 2³²)), got %q", v)
	}
	return strconv.FormatUint(n, 10), nil
}

// canonDamping validates a PageRank damping factor in (0, 1) and
// normalizes its spelling. The range test is written so that NaN, for
// which every comparison is false, fails it.
func canonDamping(v string) (string, error) {
	d, err := strconv.ParseFloat(v, 64)
	if err != nil || !(d > 0 && d < 1) {
		return "", fmt.Errorf("want a damping factor in (0, 1), got %q", v)
	}
	return strconv.FormatFloat(d, 'g', -1, 64), nil
}

// sourceParam is the shared "source" parameter of the single-source
// distance measures.
var sourceParam = ParamSpec{
	Name:     "source",
	Doc:      "input hyperedge ID distances are measured from",
	Required: true,
	Canon:    canonUint32,
}

// sourceNode resolves the canonical "source" parameter to a projection
// node, failing when the hyperedge has no node (no s-incident pair).
func sourceNode(res *core.PipelineResult, p Params) (uint32, error) {
	src, err := strconv.ParseUint(p["source"], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("measure: bad source %q", p["source"])
	}
	for u, id := range res.HyperedgeIDs {
		if id == uint32(src) {
			return uint32(u), nil
		}
	}
	return 0, fmt.Errorf("measure: hyperedge %d has no node in this projection (no s-incident pair)", src)
}

// componentsValue converts a component labeling into a Value: the count
// plus membership groups expressed in input hyperedge IDs.
func componentsValue(res *core.PipelineResult, cc *algo.Components) *Value {
	members := cc.Members()
	groups := make([][]uint32, len(members))
	for i, ms := range members {
		ids := make([]uint32, len(ms))
		for j, u := range ms {
			ids[j] = res.HyperedgeID(u)
		}
		groups[i] = ids
	}
	return &Value{Scalar: scalar(float64(cc.Count)), Groups: groups}
}

func init() {
	Register(&builtin{
		name: "components",
		doc:  "s-connected components: count and membership (breadth-first reference)",
		cost: CostLinear,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, _ par.Options) (*Value, error) {
			return componentsValue(res, algo.ConnectedComponents(res.Graph)), nil
		},
	})
	Register(&builtin{
		name: "components-lp",
		doc:  "s-connected components via parallel label propagation (Table V's LPCC)",
		cost: CostLinear,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			return componentsValue(res, algo.LabelPropagationCC(res.Graph, opt)), nil
		},
	})
	Register(&builtin{
		name:   "distances",
		doc:    "s-distances (shortest s-walk hop counts) from one hyperedge; -1 = unreachable",
		params: []ParamSpec{sourceParam},
		cost:   CostLinear,
		compute: func(_ context.Context, res *core.PipelineResult, p Params, _ par.Options) (*Value, error) {
			src, err := sourceNode(res, p)
			if err != nil {
				return nil, err
			}
			return &Value{Ints: algo.BFSDistances(res.Graph, src)}, nil
		},
	})
	Register(&builtin{
		name:   "wdistances",
		doc:    "overlap-weighted s-distances from one hyperedge (edge cost 1/W); -1 = unreachable",
		params: []ParamSpec{sourceParam},
		cost:   CostLinear,
		compute: func(_ context.Context, res *core.PipelineResult, p Params, _ par.Options) (*Value, error) {
			src, err := sourceNode(res, p)
			if err != nil {
				return nil, err
			}
			dist := algo.WeightedDistances(res.Graph, src, func(w uint32) float64 { return 1 / float64(w) })
			for i, d := range dist {
				if math.IsInf(d, 1) {
					dist[i] = -1
				}
			}
			return &Value{Scores: dist}, nil
		},
	})
	Register(&builtin{
		name: "eccentricity",
		doc:  "s-eccentricity of every hyperedge (maximum finite s-distance)",
		cost: CostAllPairs,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			return &Value{Ints: algo.Eccentricities(res.Graph, opt)}, nil
		},
	})
	Register(&builtin{
		name: "diameter",
		doc:  "s-diameter: the longest shortest s-walk between s-connected hyperedges",
		cost: CostAllPairs,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			var max int32
			for _, e := range algo.Eccentricities(res.Graph, opt) {
				if e > max {
					max = e
				}
			}
			return &Value{Scalar: scalar(float64(max))}, nil
		},
	})
	Register(&builtin{
		name: "closeness",
		doc:  "s-closeness centrality (Wasserman-Faust corrected for disconnected graphs)",
		cost: CostAllPairs,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			return &Value{Scores: algo.ClosenessCentrality(res.Graph, opt)}, nil
		},
	})
	Register(&builtin{
		name: "harmonic",
		doc:  "s-harmonic centrality, normalized by n-1",
		cost: CostAllPairs,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			return &Value{Scores: algo.HarmonicCentrality(res.Graph, opt)}, nil
		},
	})
	Register(&builtin{
		name: "betweenness",
		doc:  "s-betweenness centrality (Brandes), normalized to [0, 1]",
		cost: CostAllPairs,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			return &Value{Scores: algo.Normalize(algo.Betweenness(res.Graph, opt))}, nil
		},
	})
	Register(&builtin{
		name: "pagerank",
		doc:  "PageRank of the projection (Table II's disease ranking measure)",
		params: []ParamSpec{{
			Name:    "damping",
			Doc:     "damping factor in (0, 1)",
			Default: "0.85",
			Canon:   canonDamping,
		}},
		cost: CostIterative,
		compute: func(ctx context.Context, res *core.PipelineResult, p Params, opt par.Options) (*Value, error) {
			d, err := strconv.ParseFloat(p["damping"], 64)
			if err != nil {
				return nil, fmt.Errorf("measure: bad damping %q", p["damping"])
			}
			rank, _, err := algo.PageRankContext(ctx, res.Graph, algo.PageRankOptions{Damping: d, Par: opt})
			if err != nil {
				return nil, err
			}
			return &Value{Scores: rank}, nil
		},
	})
	Register(&builtin{
		name: "clustering",
		doc:  "local clustering coefficient of every hyperedge (transitivity of s-incidence)",
		cost: CostLinear,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			return &Value{Scores: algo.ClusteringCoefficients(res.Graph, opt)}, nil
		},
	})
	Register(&builtin{
		name: "clustering-global",
		doc:  "global clustering coefficient (transitivity) of the projection",
		cost: CostLinear,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, opt par.Options) (*Value, error) {
			return &Value{Scalar: scalar(algo.GlobalClusteringCoefficient(res.Graph, opt))}, nil
		},
	})
	Register(&builtin{
		name: "connectivity",
		doc:  "normalized algebraic connectivity λ₂ of the largest component (Fig. 6)",
		cost: CostIterative,
		compute: func(_ context.Context, res *core.PipelineResult, _ Params, _ par.Options) (*Value, error) {
			return &Value{Scalar: scalar(spectral.NormalizedAlgebraicConnectivity(res.Graph, spectral.Options{}))}, nil
		},
	})
}
