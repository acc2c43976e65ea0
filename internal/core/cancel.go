package core

import (
	"context"
)

// stopFlag lets the Stage-3 worker loops poll a context's cancellation
// at loop granularity. The hot path is a non-blocking receive on the
// context's done channel — lock-free while the channel is open
// (~10ns), and closed synchronously inside cancel() itself, so workers
// observe a cancellation at their very next poll without depending on
// any watcher goroutine being scheduled (which on a saturated
// single-core box can lag by tens of milliseconds). Workers poll once
// per outer iteration and once per wedge run (the dense store also
// every denseStopChunk endpoints), bounding cancellation latency to
// one bounded neighbor-list scan without paying per-edge
// synchronization.
type stopFlag struct {
	done <-chan struct{}
}

// watchContext returns a flag that trips once ctx is cancelled. A
// context that can never be cancelled (Background, TODO, nil)
// produces a flag that never trips and costs one nil check per poll.
func watchContext(ctx context.Context) *stopFlag {
	f := &stopFlag{}
	if ctx != nil {
		f.done = ctx.Done()
	}
	return f
}

// Stop reports whether the watched context has been cancelled.
func (f *stopFlag) Stop() bool {
	if f.done == nil {
		return false
	}
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}
