package par

import (
	"sort"
	"sync"
)

// EachS runs eval(i, inner) exactly once for every i in [0, n) — the s
// values of one sweep — and returns when all have finished. It is where
// Stage 5 is parallel: the budget's effective workers are divided across
// the sweep, and inner tells each evaluation how many of them it may
// use inside. Index i's share is budget·weight(i)/Σweight, rounded down
// and kept within [1, budget]; indices start heaviest first (the longest
// evaluation is never the last to begin) and run concurrently while the
// shares in flight fit the budget. So a flat sweep of small projections
// runs budget of them side by side with one worker each, a sweep one
// projection dominates gives that one almost every worker, and a share
// that is the whole budget — always the case for n = 1 or a budget of
// one — runs inline on the caller's goroutine. eval must be safe to
// call from several goroutines at once (for distinct i).
//
// core.RunBatch schedules a sweep's Stage-4 graph builds through it too.
func EachS(n int, budget Options, weight func(i int) int, eval func(i int, inner Options)) {
	workers := budget.EffectiveWorkers()
	weights := make([]int, n)
	order := make([]int, n)
	total := 0
	for i := range weights {
		weights[i] = max(weight(i), 1)
		total += weights[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	// One token per worker in flight. Only this goroutine acquires, so
	// taking a share one token at a time cannot deadlock.
	tokens := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, i := range order {
		inner := budget
		inner.Workers = min(max(workers*weights[i]/total, 1), workers)
		for k := 0; k < inner.Workers; k++ {
			tokens <- struct{}{}
		}
		run := func() {
			eval(i, inner)
			for k := 0; k < inner.Workers; k++ {
				<-tokens
			}
		}
		if inner.Workers == workers {
			run() // holds every token: nothing else is in flight
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
}
