package measure

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

func parOpt(workers int) par.Options { return par.Options{Workers: workers} }

// determinismGraphs are seeded generator outputs in the two regimes
// that matter for Stage 5: overlapping communities (non-trivial
// s-overlaps at s > 1) and skewed degree distributions.
func determinismGraphs() map[string]*hg.Hypergraph {
	return map[string]*hg.Hypergraph{
		"community": gen.Community(gen.CommunityConfig{
			Seed: 7, NumVertices: 60, NumCommunities: 5,
			MeanCommunitySize: 9, EdgesPerCommunity: 6, Background: 10,
		}),
		"zipf": gen.Zipf(gen.ZipfConfig{
			Seed: 21, NumVertices: 50, NumEdges: 40, MeanEdgeSize: 5, Skew: 1.3,
		}),
	}
}

// measureParamsFor builds canonical params for a measure on a concrete
// projection (single-source measures need a source that exists in it).
func measureParamsFor(t *testing.T, m Measure, res *core.PipelineResult) Params {
	t.Helper()
	raw := map[string]string{}
	for _, spec := range m.Params() {
		if spec.Name == "source" {
			if res.Graph.NumNodes() == 0 {
				t.Skip("empty projection has no source")
			}
			raw["source"] = fmt.Sprint(res.HyperedgeIDs[0])
		}
	}
	p, err := Canonicalize(m, raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// exactStrategyConfigs returns one pipeline config per registered
// Stage-3 strategy, all in the exact-weight output class, so their
// projections — and therefore every measure on them — must be
// byte-identical (the PR-3 cross-strategy contract extended to Stage
// 5).
func exactStrategyConfigs() map[string]core.PipelineConfig {
	out := map[string]core.PipelineConfig{}
	for _, st := range core.Strategies() {
		cfg := core.PipelineConfig{Core: core.Config{Algorithm: st.Algorithm()}}
		// Algorithm 1 short-circuits weights by default; exact mode
		// puts it in the same output class as the others.
		cfg.Core.DisableShortCircuit = true
		out[st.Name()] = cfg
	}
	return out
}

// TestMeasureDeterminismAcrossWorkers asserts the engine's core
// contract: every registered measure returns bit-identical values for
// workers ∈ {1, 4, GOMAXPROCS} and for blocked vs cyclic distribution.
func TestMeasureDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for gname, h := range determinismGraphs() {
		for _, s := range []int{1, 2, 3} {
			res := pipelineAt(t, h, s, core.PipelineConfig{})
			if res.Graph.NumNodes() == 0 {
				continue
			}
			for _, name := range Names() {
				m, err := Get(name)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/s=%d/%s", gname, s, name), func(t *testing.T) {
					p := measureParamsFor(t, m, res)
					base, err := m.Compute(context.Background(), res, p, parOpt(1))
					if err != nil {
						t.Fatal(err)
					}
					for _, w := range workerCounts {
						for _, strat := range []par.Strategy{par.Blocked, par.Cyclic} {
							got, err := m.Compute(context.Background(), res, p, par.Options{Workers: w, Strategy: strat, Grain: 2})
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, base) {
								t.Fatalf("workers=%d strategy=%v changed %s:\n%+v\nvs workers=1:\n%+v",
									w, strat, name, got, base)
							}
						}
					}
				})
			}
		}
	}
}

// TestMeasureDeterminismAcrossStrategies asserts that every registered
// measure is identical on projections produced by every registered
// exact-class Stage-3 strategy: the measures engine composes with the
// pluggable execution engine without observable differences.
func TestMeasureDeterminismAcrossStrategies(t *testing.T) {
	cfgs := exactStrategyConfigs()
	if len(cfgs) != 3 {
		t.Fatalf("expected 3 strategies, got %d", len(cfgs))
	}
	for gname, h := range determinismGraphs() {
		for _, s := range []int{1, 2, 3} {
			baseRes := pipelineAt(t, h, s, core.PipelineConfig{})
			if baseRes.Graph.NumNodes() == 0 {
				continue
			}
			for _, name := range Names() {
				m, err := Get(name)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/s=%d/%s", gname, s, name), func(t *testing.T) {
					p := measureParamsFor(t, m, baseRes)
					base, err := m.Compute(context.Background(), baseRes, p, parOpt(2))
					if err != nil {
						t.Fatal(err)
					}
					for stName, cfg := range cfgs {
						res := pipelineAt(t, h, s, cfg)
						got, err := m.Compute(context.Background(), res, p, parOpt(2))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, base) {
							t.Fatalf("strategy %s changed %s:\n%+v\nvs planner default:\n%+v",
								stName, name, got, base)
						}
					}
				})
			}
		}
	}
}
