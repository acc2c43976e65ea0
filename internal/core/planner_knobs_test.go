package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

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
		order, why := resolveRelabel(tc.st)
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
	got := ResolveConfig(nil, cfg) // nil h: must not be touched
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
	once := ResolveConfig(h, cfg)
	if once.Core.Relabel == hg.RelabelAuto || once.Toplex == ToplexAuto {
		t.Fatalf("auto knobs survived resolution: %+v", once)
	}
	if once.KnobReason == "" {
		t.Fatal("resolution recorded no reason")
	}
	if once.Stats == nil {
		t.Fatal("resolution did not cache stats back into the config")
	}
	twice := ResolveConfig(nil, once)
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("resolution not idempotent: %+v -> %+v", once, twice)
	}
}

// TestResolveConfigDeterministic: same stats in, same knobs out.
func TestResolveConfigDeterministic(t *testing.T) {
	st := statsRegime(10_000, 200, 3, 0.5)
	mk := func() PipelineConfig {
		return ResolveConfig(nil, PipelineConfig{
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
	resolved := ResolveConfig(h, auto)
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
