//go:build timing

package hyperline_test

import (
	"context"
	"testing"
	"time"

	"hyperline"
)

// TestExecuteCancelFig8ScaleLatency is the wall-clock half of the
// cancellation acceptance property: the cancelled sweep returns within
// 100ms while the same sweep uncancelled takes at least ten times
// longer. It sits behind the timing tag (run this lane alone, without
// -race) because under tier-1's package-parallel load the bound
// measures scheduler starvation, not the pipeline. A cancel that lands
// inside Stage 1 waits for the stage to finish (checkpoints sit between
// stages and inside the Stage-3 loops), so one attempt may miss the
// bound; only two consecutive misses fail.
func TestExecuteCancelFig8ScaleLatency(t *testing.T) {
	q := fig8Query()
	t0 := time.Now()
	if _, err := hyperline.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(t0)

	const bound = 100 * time.Millisecond
	latency, _ := cancelFig8(t, q)
	if latency > bound {
		t.Logf("cancel latency %v exceeds %v, retrying once", latency, bound)
		if latency, _ = cancelFig8(t, q); latency > bound {
			t.Fatalf("cancel latency %v exceeds %v twice", latency, bound)
		}
	}
	t.Logf("cancel latency: %v (uncancelled sweep %v)", latency, baseline)
	if latency*10 > baseline {
		t.Fatalf("cancellation saved too little: latency %v vs baseline %v", latency, baseline)
	}
}
