package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hyperline/internal/hg"
)

// statsRegime builds synthetic hg.Stats for one planner-input regime.
func statsRegime(edges, maxEdgeSize int, avgEdgeSize float64, toplexSample float64) hg.Stats {
	return hg.Stats{
		NumEdges:        edges,
		NumVertices:     edges,
		MaxEdgeSize:     maxEdgeSize,
		AvgEdgeSize:     avgEdgeSize,
		MaxVertexDegree: maxEdgeSize,
		AvgVertexDegree: avgEdgeSize,
		ToplexSample:    toplexSample,
	}
}

func TestResolveToplexRegimes(t *testing.T) {
	cases := []struct {
		name string
		st   hg.Stats
		want ToplexMode
	}{
		{"large-high-containment", statsRegime(10_000, 4, 3, 0.6), ToplexOn},
		{"large-at-threshold", statsRegime(10_000, 4, 3, toplexSampleThreshold), ToplexOn},
		{"large-low-containment", statsRegime(10_000, 4, 3, 0.1), ToplexOff},
		{"small-high-containment", statsRegime(100, 4, 3, 0.9), ToplexOff},
	}
	for _, tc := range cases {
		mode, why := resolveToplex(tc.st)
		if mode != tc.want {
			t.Errorf("%s: resolveToplex = %v (%s), want %v", tc.name, mode, why, tc.want)
		}
		if why == "" {
			t.Errorf("%s: empty reason", tc.name)
		}
	}
}

func TestResolveRelabelRegimes(t *testing.T) {
	cases := []struct {
		name string
		st   hg.Stats
		want hg.RelabelOrder
	}{
		{"large-skewed", statsRegime(10_000, 200, 3, 0), hg.RelabelAscending},
		{"large-flat", statsRegime(10_000, 5, 3, 0), hg.RelabelNone},
		{"small-skewed", statsRegime(100, 200, 3, 0), hg.RelabelNone},
		{"degenerate-avg", statsRegime(10_000, 4, 0.2, 0), hg.RelabelNone},
	}
	for _, tc := range cases {
		order, why := resolveRelabel(tc.st, nil, false, false)
		if order != tc.want {
			t.Errorf("%s: resolveRelabel = %v (%s), want %v", tc.name, order, why, tc.want)
		}
	}
}

// TestResolveConfigPinnedUnchanged: a configuration without auto knobs
// passes through ResolveConfig untouched — no stats computed, no
// reason recorded.
func TestResolveConfigPinnedUnchanged(t *testing.T) {
	cfg := PipelineConfig{
		Core:   Config{Relabel: hg.RelabelAscending},
		Toplex: ToplexOn,
	}
	got := ResolveConfig(nil, []int{2}, cfg) // nil h: must not be touched
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("pinned config changed: %+v -> %+v", cfg, got)
	}
}

// TestResolveConfigIdempotent: resolving a resolved configuration is a
// no-op, so serve (resolve-before-key) and RunBatch (resolve-on-entry)
// can both call it.
func TestResolveConfigIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	h := randomHypergraph(r, 40, 60, 6)
	cfg := PipelineConfig{
		Core:   Config{Relabel: hg.RelabelAuto},
		Toplex: ToplexAuto,
	}
	once := ResolveConfig(h, []int{2, 3}, cfg)
	if once.Core.Relabel == hg.RelabelAuto || once.Toplex == ToplexAuto {
		t.Fatalf("auto knobs survived resolution: %+v", once)
	}
	if once.KnobReason == "" {
		t.Fatal("resolution recorded no reason")
	}
	if once.Stats == nil {
		t.Fatal("resolution did not cache stats back into the config")
	}
	twice := ResolveConfig(nil, []int{2, 3}, once)
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("resolution not idempotent: %+v -> %+v", once, twice)
	}
}

// TestResolveConfigDeterministic: same stats in, same knobs out.
func TestResolveConfigDeterministic(t *testing.T) {
	st := statsRegime(10_000, 200, 3, 0.5)
	mk := func() PipelineConfig {
		return ResolveConfig(nil, []int{2}, PipelineConfig{
			Core:   Config{Relabel: hg.RelabelAuto},
			Toplex: ToplexAuto,
			Stats:  &st,
		})
	}
	a, b := mk(), mk()
	if a.Core.Relabel != b.Core.Relabel || a.Toplex != b.Toplex || a.KnobReason != b.KnobReason {
		t.Fatalf("non-deterministic resolution: %+v vs %+v", a, b)
	}
	if a.Core.Relabel != hg.RelabelAscending || a.Toplex != ToplexOn {
		t.Fatalf("skewed high-containment regime resolved to (%v, %v)", a.Core.Relabel, a.Toplex)
	}
}

// TestCalibratedRelabelOverride: once two relabel orders have
// calibrated cells, the measured winner overrides the static skew
// heuristic; with fewer than two measured orders calibration abstains.
func TestCalibratedRelabelOverride(t *testing.T) {
	st := statsRegime(10_000, 200, 3, 0) // skewed: static choice is Ascending
	costs := NewCostModel()
	obs := func(order hg.RelabelOrder, d time.Duration) {
		k := CostKey{Algo: AlgoHashmap, Relabel: order, Toplex: false, Multi: false}
		for i := 0; i < CalibrationMin; i++ {
			costs.Observe(k, d)
		}
	}

	// One measured order: abstain, static heuristic applies.
	obs(hg.RelabelAscending, 10*time.Millisecond)
	cfg := PipelineConfig{Core: Config{Relabel: hg.RelabelAuto}, Stats: &st, Costs: costs}
	got := ResolveConfig(nil, []int{2}, cfg)
	if got.Core.Relabel != hg.RelabelAscending {
		t.Fatalf("single measured order: relabel = %v, want static Ascending", got.Core.Relabel)
	}
	if strings.Contains(got.KnobReason, "calibrated") {
		t.Fatalf("calibration should abstain with one measured order: %q", got.KnobReason)
	}

	// Second order measured cheaper: calibration overrides the skew
	// heuristic.
	obs(hg.RelabelNone, 2*time.Millisecond)
	got = ResolveConfig(nil, []int{2}, cfg)
	if got.Core.Relabel != hg.RelabelNone {
		t.Fatalf("calibrated relabel = %v, want None (measured 5x cheaper)", got.Core.Relabel)
	}
	if !strings.Contains(got.KnobReason, "calibrated") {
		t.Fatalf("reason does not mention calibration: %q", got.KnobReason)
	}
}

// TestCalibratedStrategyFlip: calibrated observations flip the AlgoAuto
// multi-s choice from the static ensemble to per-s hashmap passes when
// the hashmap measured faster — and never flip toward a strategy whose
// memory budget fails.
func TestCalibratedStrategyFlip(t *testing.T) {
	st := statsRegime(10_000, 4, 3, 0)
	st.WedgePairs = 1000 // comfortably inside every budget
	sweep := []int{2, 3, 4}
	cfg := Config{Algorithm: AlgoAuto}

	costs := NewCostModel()
	calib := func(a Algorithm, d time.Duration) {
		k := CostKey{Algo: a, Multi: true}
		for i := 0; i < CalibrationMin; i++ {
			costs.Observe(k, d)
		}
	}

	// Uncalibrated: static choice is the ensemble.
	if dec := PlanQueryCosts(st, sweep, cfg, costs, false); dec.Config.Algorithm != AlgoEnsemble {
		t.Fatalf("static multi-s choice = %v, want ensemble", dec.Config.Algorithm)
	}

	// Hashmap measured faster: calibration flips the decision.
	calib(AlgoEnsemble, 50*time.Millisecond)
	calib(AlgoHashmap, 5*time.Millisecond)
	dec := PlanQueryCosts(st, sweep, cfg, costs, false)
	if dec.Config.Algorithm != AlgoHashmap {
		t.Fatalf("calibrated multi-s choice = %v, want hashmap", dec.Config.Algorithm)
	}
	if !strings.Contains(dec.Reason, "calibrated") {
		t.Fatalf("reason does not mention calibration: %q", dec.Reason)
	}

	// Ensemble measured faster but over budget: budget guard wins.
	costs2 := NewCostModel()
	for i := 0; i < CalibrationMin; i++ {
		costs2.Observe(CostKey{Algo: AlgoEnsemble, Multi: true}, time.Millisecond)
		costs2.Observe(CostKey{Algo: AlgoHashmap, Multi: true}, time.Second)
	}
	stBig := st
	stBig.WedgePairs = 1 << 40 // ensemble counters cannot fit
	if dec := PlanQueryCosts(stBig, sweep, cfg, costs2, false); dec.Config.Algorithm != AlgoHashmap {
		t.Fatalf("budget-violating calibrated win chose %v, want hashmap", dec.Config.Algorithm)
	}
}

// TestPlanQueryCostsNilMatchesPlanQuery: a nil cost model reproduces
// the static planner bit for bit.
func TestPlanQueryCostsNilMatchesPlanQuery(t *testing.T) {
	regimes := []hg.Stats{
		statsRegime(10_000, 4, 3, 0),
		statsRegime(100, 4, 3, 0),
		{NumEdges: 5000, MaxEdgeSize: 3, WedgePairs: 40_000_000},
	}
	sweeps := [][]int{{1}, {2}, {2, 4, 8}}
	for _, st := range regimes {
		for _, sweep := range sweeps {
			a := PlanQuery(st, sweep, Config{})
			b := PlanQueryCosts(st, sweep, Config{}, nil, false)
			if a.Config.Algorithm != b.Config.Algorithm || a.Reason != b.Reason {
				t.Fatalf("nil-cost divergence on %+v %v: %v vs %v", st, sweep, a, b)
			}
		}
	}
}

// weightedEdges renders a pipeline result as a deterministic string of
// weighted edges in original-hyperedge-ID space — the byte-identity
// probe of the knob-equivalence test.
func weightedEdges(res *PipelineResult) string {
	lines := make([]string, 0, len(res.Graph.Edges()))
	for _, e := range res.Graph.Edges() {
		u, v := res.HyperedgeID(e.U), res.HyperedgeID(e.V)
		if u > v {
			u, v = v, u
		}
		lines = append(lines, fmt.Sprintf("%d-%d:%d", u, v, e.W))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestKnobEquivalenceMatrix: within one toplex setting, every
// exact-weight strategy × relabel order × batch shape produces the
// identical weighted s-line graph in original-ID space, and
// planner-resolved knobs (relabel '*', toplex auto) produce output
// identical to the pinned configuration they resolve to.
func TestKnobEquivalenceMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	h := randomHypergraph(r, 45, 70, 8)
	sweep := []int{2, 3}
	algos := []Algorithm{AlgoAuto, AlgoHashmap, AlgoEnsemble}
	relabels := []hg.RelabelOrder{hg.RelabelNone, hg.RelabelAscending, hg.RelabelDescending}

	for _, mode := range []ToplexMode{ToplexOff, ToplexOn} {
		var want map[int]string
		for _, algo := range algos {
			for _, order := range relabels {
				cfg := PipelineConfig{
					Core:   Config{Algorithm: algo, Relabel: order},
					Toplex: mode,
				}
				results, err := RunBatch(context.Background(), h, sweep, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := map[int]string{}
				for s, res := range results {
					got[s] = weightedEdges(res)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("toplex=%v algo=%v relabel=%v: output differs from baseline", mode, algo, order)
				}
			}
		}

		// Single-s runs of the same matrix agree with the batch.
		for _, algo := range algos {
			cfg := PipelineConfig{Core: Config{Algorithm: algo}, Toplex: mode}
			if weightedEdges(pipelineAt(t, h, 2, cfg)) != want[2] {
				t.Fatalf("toplex=%v algo=%v single-s: output differs from batch", mode, algo)
			}
		}
	}

	// Planner-resolved knobs equal the pinned configuration they
	// resolve to, byte for byte.
	auto := PipelineConfig{
		Core:   Config{Relabel: hg.RelabelAuto},
		Toplex: ToplexAuto,
	}
	resolved := ResolveConfig(h, sweep, auto)
	autoRes, err := RunBatch(context.Background(), h, sweep, auto)
	if err != nil {
		t.Fatal(err)
	}
	pinned := PipelineConfig{
		Core:   Config{Relabel: resolved.Core.Relabel},
		Toplex: resolved.Toplex,
	}
	pinnedRes, err := RunBatch(context.Background(), h, sweep, pinned)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sweep {
		if weightedEdges(autoRes[s]) != weightedEdges(pinnedRes[s]) {
			t.Fatalf("s=%d: planner-resolved output differs from its pinned twin (%s)", s, resolved.KnobReason)
		}
	}
	for _, s := range sweep {
		if autoRes[s].Plan.KnobReason == "" {
			t.Fatalf("s=%d: auto run recorded no knob reason", s)
		}
		if autoRes[s].Plan.Relabel == hg.RelabelAuto.String() {
			t.Fatalf("s=%d: plan reports unresolved relabel", s)
		}
	}
}
