package hyperline_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"hyperline"
	"hyperline/internal/experiments"
)

func paperQueryExample() *hyperline.Hypergraph {
	return hyperline.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
}

// TestExecuteSweepShape: a sweep answers one ordered entry per distinct
// s, each identical to its single-s query, and reports the plan.
func TestExecuteSweepShape(t *testing.T) {
	h := paperQueryExample()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{3, 1, 2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Entries) != 3 {
		t.Fatalf("want 3 entries, got %d", len(qr.Entries))
	}
	for i, e := range qr.Entries {
		if e.S != i+1 {
			t.Fatalf("entries out of order: %v", qr.Entries)
		}
		single, err := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: h, S: []int{e.S}})
		if err != nil {
			t.Fatal(err)
		}
		want := single.Entries[0].Result
		if !reflect.DeepEqual(e.Result.Graph.Edges(), want.Graph.Edges()) ||
			!reflect.DeepEqual(e.Result.HyperedgeIDs, want.HyperedgeIDs) {
			t.Fatalf("s=%d: sweep entry and single-s query diverged", e.S)
		}
	}
	if qr.Plan.Strategy == "" || qr.Kind != hyperline.KindLine {
		t.Fatalf("Execute must report the executed plan and kind, got %+v / %q", qr.Plan, qr.Kind)
	}
}

// TestExecuteMeasureEntries: a measure query carries one evaluated
// value per s, matching the measure computed on the projection itself.
func TestExecuteMeasureEntries(t *testing.T) {
	h := paperQueryExample()
	qr, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{1, 2}, Measure: "components",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range qr.Entries {
		if e.Err != nil || e.Measure == nil || e.Measure.Value.Scalar == nil {
			t.Fatalf("s=%d: broken measure entry %+v", e.S, e)
		}
		want := hyperline.SConnectedComponents(e.Result)
		if int(*e.Measure.Value.Scalar) != want.Count {
			t.Fatalf("s=%d: %v components, want %d", e.S, *e.Measure.Value.Scalar, want.Count)
		}
	}
}

// TestExecuteValidation: malformed queries fail before any pipeline
// work, including s-lists beyond core.MaxSValues.
func TestExecuteValidation(t *testing.T) {
	h := paperQueryExample()
	tooMany := make([]int, 1100) // core.MaxSValues is 1024
	for i := range tooMany {
		tooMany[i] = i + 1
	}
	cases := []hyperline.Query{
		{},                           // no hypergraph, no dataset
		{Dataset: "x"},               // dataset without session
		{Hypergraph: h},              // no s values
		{Hypergraph: h, S: []int{0}}, // s < 1
		{Hypergraph: h, S: tooMany},  // beyond MaxSValues
		{Hypergraph: h, S: []int{2}, Kind: "triangle"}, // bad kind
		{Hypergraph: h, S: []int{2}, Measure: "nope"},  // unknown measure
		{Hypergraph: h, Dataset: "x", S: []int{2}},     // both sources
		{Hypergraph: h, S: []int{2}, Measure: "pagerank", // bad param
			Params: map[string]string{"damping": "7"}},
	}
	for i, q := range cases {
		if _, err := hyperline.Execute(context.Background(), q); err == nil {
			t.Fatalf("case %d must fail: %+v", i, q)
		}
	}
}

// TestSessionExecuteSharesCaches: a sweep fills the per-s entries a
// later single-s query hits, and measure values cache on top.
func TestSessionExecuteSharesCaches(t *testing.T) {
	s := hyperline.NewSession(hyperline.SessionOptions{})
	s.Add("p", paperQueryExample())

	warm, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	qr, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	e := qr.Entries[0]
	if !e.Cached {
		t.Fatal("a single-s query after a sweep covering it must be a cache hit")
	}
	if e.Result != warm.Entries[1].Result {
		t.Fatal("Execute must serve the identical cached pointer")
	}

	// Measure path: first Execute computes, second is a measure-cache
	// hit that never consults the projection.
	m1, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{2}, Measure: "diameter"})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Entries[0].Cached || m1.Entries[0].Measure == nil {
		t.Fatalf("first measure query must compute, got %+v", m1.Entries[0])
	}
	m2, err := s.Execute(context.Background(), hyperline.Query{Dataset: "p", S: []int{2}, Measure: "diameter"})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Entries[0].Cached || m2.Entries[0].Measure.Value != m1.Entries[0].Measure.Value {
		t.Fatalf("second measure query must hit, got %+v", m2.Entries[0])
	}
	if stats := s.MeasureCacheStats(); stats.Computes != 1 {
		t.Fatalf("measure computes = %d, want 1", stats.Computes)
	}

	// Unknown dataset resolves through the session registry.
	if _, err := s.Execute(context.Background(), hyperline.Query{Dataset: "ghost", S: []int{2}}); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}

// TestExecuteDeadline: Query.Deadline bounds the query on its own,
// without a caller-side context deadline.
func TestExecuteDeadline(t *testing.T) {
	h := experiments.LiveJournalAnalog(1)
	_, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: h, S: []int{2, 3, 4, 6, 8},
		Deadline: time.Now().Add(20 * time.Millisecond),
	})
	if err == nil {
		t.Skip("machine fast enough to beat a 20ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// cancelFig8 starts the Fig-8-scale sweep (the LiveJournal analog the
// Fig. 8 benchmarks use), cancels it 100ms in, and returns the
// cancel-to-return latency and Execute's error. It skips the test when the
// sweep finishes before the cancel lands.
func cancelFig8(t *testing.T, q hyperline.Query) (time.Duration, error) {
	t.Helper()
	type outcome struct {
		qr  *hyperline.QueryResult
		err error
		at  time.Time
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan outcome, 1)
	go func() {
		qr, err := hyperline.Execute(ctx, q)
		done <- outcome{qr: qr, err: err, at: time.Now()}
	}()
	select {
	case o := <-done:
		t.Skipf("sweep finished before the cancel landed (err=%v)", o.err)
	case <-time.After(100 * time.Millisecond):
	}
	cancelledAt := time.Now()
	cancel()
	o := <-done
	if o.err != nil && o.qr != nil {
		t.Fatalf("cancelled Execute returned a partial result alongside %v", o.err)
	}
	return o.at.Sub(cancelledAt), o.err
}

func fig8Query() hyperline.Query {
	return hyperline.Query{Hypergraph: experiments.LiveJournalAnalog(1), S: []int{2, 3, 4, 6, 8}}
}

// TestExecuteCancelFig8Scale is the acceptance property, logical half:
// a cancelled Execute on the Fig-8-scale hypergraph returns
// context.Canceled and no partial result. How fast it returns is
// wall-clock, asserted by TestExecuteCancelFig8ScaleLatency under the
// timing build tag.
func TestExecuteCancelFig8Scale(t *testing.T) {
	latency, err := cancelFig8(t, fig8Query())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Execute returned %v, want context.Canceled", err)
	}
	t.Logf("cancel latency: %v", latency)
}
