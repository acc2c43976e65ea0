package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// exactConfig returns a configuration that makes strat produce the
// exact-weight output class (Algorithm 1 needs short-circuiting off).
func exactConfig(strat Strategy, workers int, p par.Strategy) Config {
	cfg := Config{Algorithm: strat.Algorithm(), Workers: workers, Partition: p}
	if strat.Algorithm() == AlgoSetIntersection {
		cfg.DisableShortCircuit = true
	}
	return cfg
}

// TestStrategiesByteIdentical is the engine's core property: every
// strategy, in exact mode, produces byte-identical sorted edge lists on
// random hypergraphs across s values, worker counts, and workload
// distributions — single-s and batched.
func TestStrategiesByteIdentical(t *testing.T) {
	if len(Strategies()) != 3 {
		t.Fatalf("expected 3 strategies, got %d", len(Strategies()))
	}
	f := func(seed int64, sRaw, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 30, 40, 8)
		s := 1 + int(sRaw%5)
		workers := 1 + int(wRaw%7)
		sweep := []int{s, s + 2, 1}

		want := NaiveAllPairs(h, s)
		for _, strat := range Strategies() {
			for _, p := range []par.Strategy{par.Blocked, par.Cyclic} {
				cfg := exactConfig(strat, workers, p)
				single, _, _ := strat.Edges(context.Background(), h, []int{s}, cfg)
				if got := single[s]; !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Logf("%s single s=%d workers=%d %v: got %v want %v",
						strat.Name(), s, workers, p, got, want)
					return false
				}
				batch, _, _ := strat.Edges(context.Background(), h, sweep, cfg)
				for _, si := range DistinctS(sweep) {
					ref := NaiveAllPairs(h, si)
					if got := batch[si]; !reflect.DeepEqual(got, ref) && !(len(got) == 0 && len(ref) == 0) {
						t.Logf("%s batch s=%d disagrees", strat.Name(), si)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerPathsByteIdentical drives the full pipeline down every
// strategy path — pinned and planner-chosen — and requires identical
// projections from RunBatch.
func TestPlannerPathsByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	h := randomHypergraph(r, 60, 90, 7)
	sweep := []int{1, 2, 3, 5}

	ref, _ := RunBatch(context.Background(), h, sweep, PipelineConfig{})
	if len(ref) != len(sweep) {
		t.Fatalf("RunBatch produced %d results, want %d", len(ref), len(sweep))
	}
	pinned := []Config{
		{Algorithm: AlgoHashmap},
		{Algorithm: AlgoEnsemble},
		{Algorithm: AlgoSetIntersection, DisableShortCircuit: true},
	}
	for _, cfg := range pinned {
		got, _ := RunBatch(context.Background(), h, sweep, PipelineConfig{Core: cfg})
		for _, s := range sweep {
			if !reflect.DeepEqual(got[s].Graph.Edges(), ref[s].Graph.Edges()) {
				t.Fatalf("algorithm %s s=%d: edges differ from planner default", cfg.Algorithm, s)
			}
			if !reflect.DeepEqual(got[s].HyperedgeIDs, ref[s].HyperedgeIDs) {
				t.Fatalf("algorithm %s s=%d: hyperedge IDs differ from planner default", cfg.Algorithm, s)
			}
			if got[s].Plan.Strategy == "" {
				t.Fatalf("algorithm %s s=%d: missing plan info", cfg.Algorithm, s)
			}
		}
	}
	// And each batch result equals its single-s pipeline run.
	for _, s := range sweep {
		single := pipelineAt(t, h, s, PipelineConfig{})
		if !reflect.DeepEqual(ref[s].Graph.Edges(), single.Graph.Edges()) {
			t.Fatalf("s=%d: batch result differs from its single-s run", s)
		}
	}
}

// TestRunBatchDegenerateInputs pins the edge cases of the batch entry.
func TestRunBatchDegenerateInputs(t *testing.T) {
	h := paperExample()
	if got, _ := RunBatch(context.Background(), h, nil, PipelineConfig{}); len(got) != 0 {
		t.Fatalf("RunBatch with no s values returned %d results", len(got))
	}
	dup, _ := RunBatch(context.Background(), h, []int{2, 2, 0}, PipelineConfig{})
	if len(dup) != 2 { // {1, 2}: 0 clamps to 1
		t.Fatalf("RunBatch([2,2,0]) returned %d results, want 2", len(dup))
	}
	if dup[1] == nil || dup[2] == nil {
		t.Fatalf("RunBatch([2,2,0]) missing clamped keys: %v", dup)
	}
}

func stats(m, maxEdge int, wedgePairs int64) hg.Stats {
	return hg.Stats{NumEdges: m, MaxEdgeSize: maxEdge, WedgePairs: wedgePairs}
}

// TestPlanQueryDecisionTree enumerates every leaf of the planner with
// synthetic dataset statistics, and requires the decision to be a pure
// function of (stats, s values, config).
func TestPlanQueryDecisionTree(t *testing.T) {
	const fits = ensembleCounterBudget / ensembleBytesPerCounter // largest WedgePairs the ensemble takes
	cases := []struct {
		name   string
		st     hg.Stats
		s      []int
		cfg    Config
		want   Algorithm
		wantSC bool // expected DisableShortCircuit on the resolved config
	}{
		{"pinned algorithm 1 single",
			stats(100000, 40, 1<<20), []int{2}, Config{Algorithm: AlgoSetIntersection}, AlgoSetIntersection, false},
		{"pinned algorithm 1 batch never coalesces",
			stats(100000, 40, 1<<20), []int{2, 4}, Config{Algorithm: AlgoSetIntersection}, AlgoSetIntersection, false},
		{"pinned algorithm 1 keeps exact mode",
			stats(100000, 40, 1<<20), []int{2}, Config{Algorithm: AlgoSetIntersection, DisableShortCircuit: true}, AlgoSetIntersection, true},
		{"pinned hashmap single stays hashmap",
			stats(100000, 40, 1<<20), []int{2}, Config{Algorithm: AlgoHashmap}, AlgoHashmap, false},
		{"pinned hashmap batch coalesces into ensemble",
			stats(100000, 40, 1<<20), []int{2, 4}, Config{Algorithm: AlgoHashmap}, AlgoEnsemble, false},
		{"pinned hashmap batch at the counter budget still coalesces",
			stats(100000, 40, fits), []int{2, 4}, Config{Algorithm: AlgoHashmap}, AlgoEnsemble, false},
		{"pinned hashmap batch one counter over budget stays per-s",
			stats(100000, 40, fits+1), []int{2, 4}, Config{Algorithm: AlgoHashmap}, AlgoHashmap, false},
		{"pinned hashmap duplicate s values are one s",
			stats(100000, 40, 1<<20), []int{3, 3, 3}, Config{Algorithm: AlgoHashmap}, AlgoHashmap, false},
		{"pinned ensemble honored for single s",
			stats(100000, 40, 1<<20), []int{2}, Config{Algorithm: AlgoEnsemble}, AlgoEnsemble, false},
		{"pinned ensemble honored over budget",
			stats(100000, 40, 1<<40), []int{2, 4}, Config{Algorithm: AlgoEnsemble}, AlgoEnsemble, false},
		{"auto batch coalesces into ensemble",
			stats(100000, 40, 1<<20), []int{1, 2, 3}, Config{}, AlgoEnsemble, false},
		{"auto batch at the counter budget takes the ensemble",
			stats(100000, 40, fits), []int{1, 2, 3}, Config{}, AlgoEnsemble, false},
		{"auto batch over counter budget falls back to per-s hashmap",
			stats(100000, 40, fits+1), []int{1, 2, 3}, Config{}, AlgoHashmap, false},
		{"auto batch with overflow-scale wedge pairs stays per-s hashmap",
			stats(1<<30, 40, 1<<62), []int{1, 2}, Config{}, AlgoHashmap, false},
		{"auto single-s takes hashmap",
			stats(100000, 40, 1<<20), []int{4}, Config{}, AlgoHashmap, false},
		{"auto s=1 on a half-complete line graph takes hashmap",
			stats(4096, 4, int64(4096)*4095), []int{1}, Config{}, AlgoHashmap, false},
		{"auto s beyond max edge size is trivially empty",
			stats(100000, 40, 1<<20), []int{41}, Config{}, AlgoHashmap, false},
	}
	for _, tc := range cases {
		sValues := append([]int(nil), tc.s...)
		dec := PlanQuery(tc.st, tc.s, tc.cfg)
		if dec.Strategy.Algorithm() != tc.want {
			t.Errorf("%s: planned %s, want %s (reason: %s)",
				tc.name, dec.Strategy.Algorithm(), tc.want, dec.Reason)
		}
		if dec.Config.Algorithm != dec.Strategy.Algorithm() {
			t.Errorf("%s: resolved config algorithm %s != strategy %s",
				tc.name, dec.Config.Algorithm, dec.Strategy.Algorithm())
		}
		if dec.Config.DisableShortCircuit != tc.wantSC {
			t.Errorf("%s: DisableShortCircuit = %v, want %v",
				tc.name, dec.Config.DisableShortCircuit, tc.wantSC)
		}
		if dec.Reason == "" {
			t.Errorf("%s: empty plan reason", tc.name)
		}
		if again := PlanQuery(tc.st, tc.s, tc.cfg); !reflect.DeepEqual(again, dec) {
			t.Errorf("%s: same inputs planned %+v, then %+v", tc.name, dec, again)
		}
		if !reflect.DeepEqual(tc.s, sValues) {
			t.Errorf("%s: PlanQuery modified its s values: %v -> %v", tc.name, sValues, tc.s)
		}
	}
}

// TestPlannerNeverChangesOutputClass: whatever the planner picks for an
// AlgoAuto query, the output must be the exact-weight class — identical
// to a pinned Algorithm 2 run.
func TestPlannerNeverChangesOutputClass(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHypergraph(r, 25, 35, 6)
		s := 1 + int(sRaw%4)
		auto, _, _ := SLineEdges(context.Background(), h, s, Config{})
		pinned, _, _ := SLineEdges(context.Background(), h, s, Config{Algorithm: AlgoHashmap})
		return reflect.DeepEqual(auto, pinned) || (len(auto) == 0 && len(pinned) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyRegistry exercises the strategy table's surface.
func TestStrategyRegistry(t *testing.T) {
	for _, a := range []Algorithm{AlgoSetIntersection, AlgoHashmap, AlgoEnsemble} {
		strat, err := StrategyFor(a)
		if err != nil {
			t.Fatalf("StrategyFor(%s): %v", a, err)
		}
		if strat.Algorithm() != a {
			t.Fatalf("StrategyFor(%s) returned %s", a, strat.Algorithm())
		}
	}
	for _, a := range []Algorithm{4, 99} { // 4 was the SpGEMM tag
		if _, err := StrategyFor(a); err == nil {
			t.Fatalf("StrategyFor(%d) should error", a)
		}
	}
	if _, err := StrategyFor(AlgoAuto); err == nil {
		t.Fatal("AlgoAuto is not a strategy; it must resolve through PlanQuery")
	}
}

// StrategyFor resolves a pinned algorithm tag to its strategy.
func StrategyFor(a Algorithm) (Strategy, error) {
	if a < 1 || int(a) > len(strategies) {
		return nil, fmt.Errorf("core: no strategy for algorithm %s", a)
	}
	return strategies[a-1], nil
}
