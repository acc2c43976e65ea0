package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/par"
)

var cancelGraphOnce sync.Once
var cancelGraphH *hg.Hypergraph

// cancelGraph is a generated hypergraph whose cost concentrates in
// Stage 3 (dense overlapping communities → many wedges) while Stages 1
// and 4 stay in the low tens of milliseconds: the s-overlap loops are
// where the cancellation checkpoints live, so that is where a
// mid-flight cancel must land for the latency bound to be meaningful.
func cancelGraph() *hg.Hypergraph {
	cancelGraphOnce.Do(func() {
		cancelGraphH = gen.Community(gen.CommunityConfig{
			Seed: 99, NumVertices: 4000, NumCommunities: 70,
			MeanCommunitySize: 45, EdgesPerCommunity: 50, Background: 1000,
		})
	})
	return cancelGraphH
}

// runCancelled starts RunBatch on the large graph, cancels it once the
// pipeline is underway, and returns the observed error and the latency
// between the cancel landing and RunBatch returning. ok is false when
// the pipeline finished before the cancellation landed (an extremely
// fast machine); callers skip rather than flake.
func runCancelled(t *testing.T, delay time.Duration, cfg PipelineConfig, sValues []int) (err error, latency time.Duration, ok bool) {
	t.Helper()
	h := cancelGraph() // materialize outside the timed window
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunBatch(ctx, h, sValues, cfg)
		at := time.Now()
		if err != nil && res != nil {
			t.Errorf("RunBatch returned a partial result alongside %v", err)
		}
		done <- outcome{err: err, at: at}
	}()
	select {
	case o := <-done:
		// Finished before we could cancel: nothing to measure.
		return o.err, 0, false
	case <-time.After(delay):
	}
	cancelled := time.Now()
	cancel()
	o := <-done
	return o.err, o.at.Sub(cancelled), true
}

// cancelConfigs are the planner-driven and pinned configurations the
// cancellation contract is checked under.
var cancelConfigs = []struct {
	name string
	cfg  PipelineConfig
	s    []int
}{
	{"auto-batch", PipelineConfig{}, []int{2, 3, 4, 6, 8}},
	{"hashmap-single", PipelineConfig{Core: Config{Algorithm: AlgoHashmap}}, []int{2}},
	{"algo1-exact", PipelineConfig{Core: Config{Algorithm: AlgoSetIntersection, DisableShortCircuit: true}}, []int{2}},
}

// TestRunBatchCancelLatency is the core acceptance property: a cancel
// landing mid-pipeline returns context.Canceled and no partial result,
// for both planner-driven and pinned configurations. How fast it
// returns is wall-clock, asserted by TestRunBatchCancelLatencyBound
// under the timing build tag.
func TestRunBatchCancelLatency(t *testing.T) {
	for _, tc := range cancelConfigs {
		t.Run(tc.name, func(t *testing.T) {
			err, latency, ok := runCancelled(t, 20*time.Millisecond, tc.cfg, tc.s)
			if !ok {
				t.Skipf("pipeline finished before the cancel landed (err=%v)", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled RunBatch returned %v, want context.Canceled", err)
			}
			t.Logf("cancel latency: %v", latency)
		})
	}
}

// TestRunCancelledBeforeStart: a dead context never starts Stage 1.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunBatch(ctx, cancelGraph(), []int{2}, PipelineConfig{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestRunDeadlineExceeded: an expired deadline surfaces as
// context.DeadlineExceeded, not Canceled.
func TestRunDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := RunBatch(ctx, cancelGraph(), []int{2, 3, 4}, PipelineConfig{})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded (or nil on a very fast machine)", err)
	}
	if err == nil {
		t.Skip("pipeline beat the 10ms deadline")
	}
}

// TestCancelDoesNotLeakGoroutines: repeated cancelled runs leave no
// worker or watcher goroutines behind.
func TestCancelDoesNotLeakGoroutines(t *testing.T) {
	h := cancelGraph() // materialize before counting
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			RunBatch(ctx, h, []int{2, 3, 4}, PipelineConfig{})
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		<-done
	}
	// Workers exit cooperatively; give the scheduler a moment to reap
	// them before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 || time.Now().After(deadline) {
			if n > before+2 {
				t.Fatalf("goroutines leaked: %d before, %d after cancelled runs", before, n)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelledOutputNeverPartial: a run that survives cancellation
// attempts (because it finished first) must be byte-identical to an
// unperturbed run — cancellation may abort, never corrupt.
func TestCancelledOutputNeverPartial(t *testing.T) {
	h := gen.Community(gen.CommunityConfig{
		Seed: 7, NumVertices: 2000, NumCommunities: 250,
		MeanCommunitySize: 8, EdgesPerCommunity: 3, Background: 300,
	})
	want, _, err := SLineEdges(context.Background(), h, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		got, _, err := SLineEdges(ctx, h, 2, Config{Workers: 4, Partition: par.Cyclic})
		cancel()
		if err != nil {
			t.Fatalf("uncancelled run errored: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d edges, want %d", i, len(got), len(want))
		}
	}
}
