//go:build timing

package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// cancelLatencyBound is the maximum time a cancelled pipeline may take
// to return after the cancellation lands. The real latency is one
// neighbor-list scan plus (at worst) one Stage-4 build — microseconds
// to low milliseconds — so the bound has two orders of magnitude of
// slack on an otherwise idle machine. It is wall-clock, which is why
// it sits behind the timing tag (run this lane alone, without -race)
// instead of in tier-1, where every package runs at once.
const cancelLatencyBound = 100 * time.Millisecond

// TestRunBatchCancelLatencyBound: a cancel landing mid-pipeline returns
// within cancelLatencyBound.
func TestRunBatchCancelLatencyBound(t *testing.T) {
	for _, tc := range cancelConfigs {
		t.Run(tc.name, func(t *testing.T) {
			err, latency, ok := runCancelled(t, 20*time.Millisecond, tc.cfg, tc.s)
			if !ok {
				t.Skipf("pipeline finished before the cancel landed (err=%v)", err)
			}
			if latency > cancelLatencyBound {
				t.Fatalf("cancel latency %v exceeds %v", latency, cancelLatencyBound)
			}
		})
	}
}

// TestRunCancelledBeforeStartBound: a dead context returns at once.
func TestRunCancelledBeforeStartBound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := cancelGraph()
	start := time.Now()
	if _, err := RunBatch(ctx, h, []int{2}, PipelineConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > cancelLatencyBound {
		t.Fatalf("pre-cancelled RunBatch took %v", d)
	}
}
