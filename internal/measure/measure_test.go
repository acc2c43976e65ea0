package measure

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

func paperExample() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{0, 1, 2, 3, 4},
		{4, 5},
	}, 6)
}

func TestRegistryNamesAndGet(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("expected a full registry, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, want := range []string{
		"components", "components-lp", "distances", "wdistances",
		"eccentricity", "diameter", "closeness", "harmonic",
		"betweenness", "pagerank", "clustering", "clustering-global",
		"connectivity",
	} {
		if _, err := Get(want); err != nil {
			t.Fatalf("registry missing %s: %v", want, err)
		}
	}
	_, err := Get("nope")
	if err == nil {
		t.Fatal("unknown measure must error")
	}
	// The error is the menu: every registered name must be listed, so
	// a typo surfaces the full choice instead of a silent default.
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-measure error does not list %q: %v", name, err)
		}
	}
}

func TestInfos(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("Infos() covers %d measures, registry has %d", len(infos), len(Names()))
	}
	for _, info := range infos {
		if info.Doc == "" || info.Cost == "?" {
			t.Fatalf("measure %s has incomplete metadata: %+v", info.Name, info)
		}
	}
}

func TestCanonicalize(t *testing.T) {
	dist, _ := Get("distances")
	if _, err := Canonicalize(dist, nil); err == nil {
		t.Fatal("distances without source must fail")
	}
	if _, err := Canonicalize(dist, map[string]string{"source": "x"}); err == nil {
		t.Fatal("non-integer source must fail")
	}
	if _, err := Canonicalize(dist, map[string]string{"source": "1", "bogus": "2"}); err == nil {
		t.Fatal("undeclared parameter must fail")
	}
	p, err := Canonicalize(dist, map[string]string{"source": "007"})
	if err != nil {
		t.Fatal(err)
	}
	if p.CanonicalString() != "source=7" {
		t.Fatalf("source not normalized: %q", p.CanonicalString())
	}

	pr, _ := Get("pagerank")
	p, err = Canonicalize(pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.CanonicalString() != "damping=0.85" {
		t.Fatalf("default damping not filled: %q", p.CanonicalString())
	}
	// Equivalent spellings share one canonical form (one cache key).
	p2, err := Canonicalize(pr, map[string]string{"damping": "0.850"})
	if err != nil {
		t.Fatal(err)
	}
	if p2.CanonicalString() != p.CanonicalString() {
		t.Fatalf("equivalent damping spellings diverge: %q vs %q",
			p2.CanonicalString(), p.CanonicalString())
	}
	if _, err := Canonicalize(pr, map[string]string{"damping": "1.5"}); err == nil {
		t.Fatal("out-of-range damping must fail")
	}

	comp, _ := Get("components")
	p, err = Canonicalize(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.CanonicalString() != "" {
		t.Fatalf("parameterless measure has params: %q", p.CanonicalString())
	}
}

// pipelineAt runs the pipeline for one s, failing the test on error.
func pipelineAt(t testing.TB, h *hg.Hypergraph, s int, cfg core.PipelineConfig) *core.PipelineResult {
	t.Helper()
	out, err := core.RunBatch(context.Background(), h, []int{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out[s]
}

// TestCanonicalizeRejectsNaNDamping: NaN fails both halves of a
// "d <= 0 || d >= 1" test, so a range check written that way lets it
// through and every rank comes out NaN.
func TestCanonicalizeRejectsNaNDamping(t *testing.T) {
	pr, _ := Get("pagerank")
	for _, v := range []string{"NaN", "nan", "-NaN", "+Inf", "-Inf"} {
		if p, err := Canonicalize(pr, map[string]string{"damping": v}); err == nil {
			t.Fatalf("damping %q canonicalized to %q, want an error", v, p.CanonicalString())
		}
	}
}

func TestComponentsOnPaperExample(t *testing.T) {
	res := pipelineAt(t, paperExample(), 2, core.PipelineConfig{})
	m, _ := Get("components")
	v, err := m.Compute(context.Background(), res, nil, parOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	// s=2: hyperedges {0,1,2} form one component, hyperedge 3 has no
	// 2-incident pair and is not a node at all.
	if v.Scalar == nil || *v.Scalar != 1 {
		t.Fatalf("components scalar = %v, want 1", v.Scalar)
	}
	if len(v.Groups) != 1 || len(v.Groups[0]) != 3 {
		t.Fatalf("groups = %v", v.Groups)
	}
}

func TestDistancesSourceValidation(t *testing.T) {
	res := pipelineAt(t, paperExample(), 2, core.PipelineConfig{})
	m, _ := Get("distances")
	p, err := Canonicalize(m, map[string]string{"source": "3"})
	if err != nil {
		t.Fatal(err)
	}
	// Hyperedge 3 has no node in the 2-line graph.
	if _, err := m.Compute(context.Background(), res, p, parOpt(1)); err == nil {
		t.Fatal("absent source hyperedge must fail")
	}
	p, _ = Canonicalize(m, map[string]string{"source": "0"})
	v, err := m.Compute(context.Background(), res, p, parOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Ints) != res.Graph.NumNodes() {
		t.Fatalf("distances length %d, want %d", len(v.Ints), res.Graph.NumNodes())
	}
}

func TestWriteSweepTableScalar(t *testing.T) {
	var b bytes.Buffer
	err := WriteSweepTable(&b, "components", nil, 5, []SweepRow{
		{S: 2, Nodes: 3, Edges: 3, Value: &Value{Scalar: scalar(1)}},
		{S: 1, Nodes: 4, Edges: 4, Value: &Value{Scalar: scalar(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "# measure=components\ns\tnodes\tedges\tcomponents\n1\t4\t4\t1\n2\t3\t3\t1\n"
	if b.String() != want {
		t.Fatalf("scalar table:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestWriteSweepTableVector(t *testing.T) {
	var b bytes.Buffer
	err := WriteSweepTable(&b, "harmonic", nil, 2, []SweepRow{
		{
			S: 1, Nodes: 3, Edges: 2,
			HyperedgeIDs: []uint32{10, 11, 12},
			Value:        &Value{Scores: []float64{0.5, 1, 0.5}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 is the max score; the tie at 0.5 breaks by ascending
	// hyperedge ID.
	want := "# measure=harmonic top=2\ns\tnodes\tedges\trank\thyperedge\tharmonic\n" +
		"1\t3\t2\t1\t11\t1\n1\t3\t2\t2\t10\t0.500000\n"
	if b.String() != want {
		t.Fatalf("vector table:\n%q\nwant:\n%q", b.String(), want)
	}
}
