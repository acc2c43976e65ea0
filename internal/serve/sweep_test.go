package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/measure"
	"hyperline/internal/par"
)

// sweepDataset has non-empty, differently sized projections at every
// s in 1..5, so a measure sweep over it gives the scheduler unequal
// weights.
func sweepDataset() *hg.Hypergraph {
	return gen.Community(gen.CommunityConfig{
		Seed: 15, NumVertices: 300, NumCommunities: 30,
		MeanCommunitySize: 10, EdgesPerCommunity: 6,
	})
}

// sweepBody posts one measure sweep to a fresh service and returns the
// response with its wall-clock fields zeroed, re-encoded.
func sweepBody(t *testing.T, measureName string, workers int) ([]byte, *Service) {
	t.Helper()
	svc := New(Config{})
	svc.Add("g", sweepDataset())
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	var resp queryResponseJSON
	postQuery(t, ts, fmt.Sprintf(`{"dataset":"g","s":"1:5","measure":%q,"workers":%d}`, measureName, workers), 200, &resp)
	resp.ElapsedMS = 0
	for i := range resp.Results {
		resp.Results[i].TimingsMS = nil
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body, svc
}

// TestMeasureSweepSameBodyAtAnyBudget: the sweep scheduler changes who
// runs when, never what is answered — /v2/query bodies are byte-equal
// between a serial budget and a wide one, and each sweep costs exactly
// one evaluation per s.
func TestMeasureSweepSameBodyAtAnyBudget(t *testing.T) {
	// clampWorkers caps a request at GOMAXPROCS; lift it so workers=8
	// is a budget of eight on any box.
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, name := range []string{"components", "pagerank", "connectivity", "betweenness"} {
		serial, svc1 := sweepBody(t, name, 1)
		wide, svc8 := sweepBody(t, name, 8)
		if !bytes.Equal(serial, wide) {
			t.Fatalf("%s: workers=1 and workers=8 bodies differ:\n%s\n%s", name, serial, wide)
		}
		for _, svc := range []*Service{svc1, svc8} {
			if got := svc.MeasureCacheStats().Computes; got != 5 {
				t.Fatalf("%s: sweep of 5 s values ran %d evaluations", name, got)
			}
		}
	}
}

// TestMeasureSweepPerSErrorBesideNeighbours: hyperedge 0 has a node at
// s=1 only, so distances from it fail at s=2 and s=3 as entries while
// s=1 answers — also when the three run side by side.
func TestMeasureSweepPerSErrorBesideNeighbours(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", hg.FromEdgeSlices([][]uint32{
		{0, 1}, {1, 2}, {5, 6, 7, 8}, {6, 7, 8, 9}, {7, 8, 9, 10},
	}, 11))
	for _, workers := range []int{1, 3} {
		qr, err := svc.Query(context.Background(), QueryRequest{
			Dataset: "h", S: []int{1, 2, 3}, Measure: "distances",
			Params:  map[string]string{"source": "0"},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if e := qr.Entries[0]; e.S != 1 || e.Err != nil || e.Measure == nil {
			t.Fatalf("workers=%d: s=1 entry broken: %+v", workers, e)
		}
		for _, e := range qr.Entries[1:] {
			if e.Err == nil || e.Measure != nil || e.Res == nil {
				t.Fatalf("workers=%d: s=%d must carry a per-s error beside its projection, got %+v", workers, e.S, e)
			}
		}
	}
}

// gateMeasure evaluates nothing: it reports that it started and then
// waits for its context to end, so a test can cancel a sweep at a known
// point.
type gateMeasure struct {
	started chan struct{}
	count   atomic.Int32
}

func (*gateMeasure) Name() string                { return "test-gate" }
func (*gateMeasure) Doc() string                 { return "test only: blocks until cancelled" }
func (*gateMeasure) Params() []measure.ParamSpec { return nil }
func (*gateMeasure) Cost() measure.Cost          { return measure.CostLinear }
func (g *gateMeasure) Compute(ctx context.Context, _ *core.PipelineResult, _ measure.Params, _ par.Options) (*measure.Value, error) {
	g.count.Add(1)
	g.started <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

var gate = &gateMeasure{started: make(chan struct{})}

func init() { measure.Register(gate) }

// TestMeasureSweepCancelStartsNoFurtherS: once the request is cancelled
// the s values that have not started never do, and Query returns the
// context's error rather than a result of per-s errors.
func TestMeasureSweepCancelStartsNoFurtherS(t *testing.T) {
	for _, workers := range []int{1, 2} {
		svc := New(Config{})
		svc.Add("g", sweepDataset())
		gate.count.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := svc.Query(ctx, QueryRequest{
				Dataset: "g", S: []int{1, 2, 3, 4, 5}, Measure: gate.Name(),
				Workers: workers,
			})
			errc <- err
		}()
		// Every share is one worker here, so exactly `workers`
		// evaluations start before anything has to finish.
		for i := 0; i < workers; i++ {
			<-gate.started
		}
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Query returned %v, want context.Canceled", workers, err)
		}
		if got := gate.count.Load(); int(got) != workers {
			t.Fatalf("workers=%d: %d evaluations started, want %d and none after the cancel", workers, got, workers)
		}
		if got := svc.MeasureCacheStats().Computes; int(got) != workers {
			t.Fatalf("workers=%d: compute counter %d, want %d", workers, got, workers)
		}
	}
}
