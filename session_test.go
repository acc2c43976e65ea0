package hyperline_test

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"hyperline"
)

func sessionExample() *hyperline.Hypergraph {
	return hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
}

// direct runs a one-s sessionless query and returns its projection —
// the uncached reference the session results are compared against.
func direct(t testing.TB, kind hyperline.Kind, s int, opt hyperline.Options) *hyperline.Result {
	t.Helper()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: sessionExample(), Kind: kind, S: []int{s}, Options: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return qr.Entries[0].Result
}

// paperQuery is a line query for the given s values on the "paper"
// dataset every session test registers.
func paperQuery(s ...int) hyperline.Query {
	return hyperline.Query{Dataset: "paper", S: s}
}

func TestSessionCachesAcrossCalls(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	q1, err := sess.Execute(context.Background(), paperQuery(2))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sess.Execute(context.Background(), paperQuery(2))
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := q1.Entries[0], q2.Entries[0]
	if r1.Cached || !r2.Cached || r1.Result != r2.Result {
		t.Fatal("repeated query must return the cached result pointer")
	}
	if !reflect.DeepEqual(r1.Result.Graph.Edges(), direct(t, hyperline.KindLine, 2, hyperline.Options{}).Graph.Edges()) {
		t.Fatal("session result differs from the sessionless Execute")
	}
	st := sess.CacheStats()
	if st.Hits < 1 || st.Entries != 1 {
		t.Fatalf("bad cache stats %+v", st)
	}
}

func TestSessionConcurrentRequestsShareOneResult(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	const n = 16
	results := make([]*hyperline.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, err := sess.Execute(context.Background(), paperQuery(2))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = qr.Entries[0].Result
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent identical requests must share one result")
		}
	}
}

// TestSessionBackgroundSweepWarmsCache: a background-priority sweep is
// the warmup recipe — it computes every projection once, and the
// interactive queries that follow are hits.
func TestSessionBackgroundSweepWarmsCache(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	warm := paperQuery(1, 2, 3)
	warm.Priority = hyperline.PriorityBackground
	qr, err := sess.Execute(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range qr.Entries {
		if e.Cached {
			t.Fatalf("s=%d: first sweep must compute, not hit", e.S)
		}
	}
	for s := 1; s <= 3; s++ {
		got, err := sess.Execute(context.Background(), paperQuery(s))
		if err != nil {
			t.Fatal(err)
		}
		if e := got.Entries[0]; !e.Cached || e.Result != qr.Entries[s-1].Result {
			t.Fatalf("s=%d: query after the warming sweep must hit its cached pointer", s)
		}
		if !reflect.DeepEqual(got.Entries[0].Result.Graph.Edges(), direct(t, hyperline.KindLine, s, hyperline.Options{}).Graph.Edges()) {
			t.Fatalf("s=%d: warmed result differs from the sessionless Execute", s)
		}
	}
}

func TestSessionCliqueAndBatch(t *testing.T) {
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	sess.Add("paper", sessionExample())

	opt := hyperline.Options{NoSqueeze: true}
	cliques, err := sess.Execute(context.Background(), hyperline.Query{
		Dataset: "paper", Kind: hyperline.KindClique, S: []int{1, 2}, Options: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques.Entries) != 2 || cliques.Kind != hyperline.KindClique {
		t.Fatalf("clique sweep returned %d entries of kind %q", len(cliques.Entries), cliques.Kind)
	}
	for _, e := range cliques.Entries {
		if !reflect.DeepEqual(e.Result.Graph.Edges(), direct(t, hyperline.KindClique, e.S, opt).Graph.Edges()) {
			t.Fatalf("s=%d: session clique graph differs from the sessionless Execute", e.S)
		}
	}

	if _, err := sess.Execute(context.Background(), paperQuery()); err == nil {
		t.Fatal("empty s-list must error")
	}
}

func TestSessionLoadAndList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.bin")
	if err := hyperline.Save(path, sessionExample()); err != nil {
		t.Fatal(err)
	}
	sess := hyperline.NewSession(hyperline.SessionOptions{})
	if err := sess.Load("disk", path); err != nil {
		t.Fatal(err)
	}
	list := sess.Datasets()
	if len(list) != 1 || list[0].Name != "disk" || list[0].Stats.NumEdges != 4 {
		t.Fatalf("bad listing %+v", list)
	}
	if _, err := sess.Execute(context.Background(), hyperline.Query{Dataset: "missing", S: []int{2}}); err == nil {
		t.Fatal("unknown dataset must error")
	}
	if !sess.Remove("disk") {
		t.Fatal("remove failed")
	}
}

// TestSessionWarmStart drives the persistence half of the facade: a
// mapped .bin dataset served by an OpenSession with a spill tier, its
// state saved, and a second OpenSession on the same directories that
// restores the dataset and answers from the spill tier without a
// recompute.
func TestSessionWarmStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.bin")
	if err := hyperline.Save(path, sessionExample()); err != nil {
		t.Fatal(err)
	}
	h, err := hyperline.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := hyperline.SessionOptions{
		MaxInflight: 3,
		SpillDir:    filepath.Join(dir, "spill"),
		StateDir:    filepath.Join(dir, "state"),
	}
	ctx := context.Background()
	q := hyperline.Query{Dataset: "paper", S: []int{1, 2, 3}}

	cold, err := hyperline.OpenSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.AdmissionStats().MaxInflight; got != 3 {
		t.Fatalf("AdmissionStats().MaxInflight = %d, want 3", got)
	}
	cold.Add("paper", h)
	want, err := cold.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.SaveState(opt.StateDir); err != nil {
		t.Fatal(err)
	}
	if st := cold.SpillStats(); st.Entries == 0 {
		t.Fatalf("SaveState flushed nothing to the spill tier: %+v", st)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := hyperline.OpenSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if names, err := warm.RestoreState(opt.StateDir); err != nil || !reflect.DeepEqual(names, []string{"paper"}) {
		t.Fatalf("RestoreState = %v, %v; want [paper]", names, err)
	}
	got, err := warm.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Entries {
		if !e.Cached || e.Result.Graph.NumEdges() != want.Entries[i].Result.Graph.NumEdges() {
			t.Fatalf("s=%d after a warm start: cached=%v, %d edges, want cached and %d",
				e.S, e.Cached, e.Result.Graph.NumEdges(), want.Entries[i].Result.Graph.NumEdges())
		}
	}
	var metrics strings.Builder
	if err := warm.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "hyperline_projection_computes_total 0\n") {
		t.Fatal("a warm start recomputed a projection")
	}
	var names []string
	for _, m := range hyperline.Measures() {
		names = append(names, m.Name)
	}
	if !slices.Contains(names, "components") {
		t.Fatalf("Measures() = %v, want components among them", names)
	}
}
