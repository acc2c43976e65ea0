package measure

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hyperline/internal/par"
)

// These tests pin par.EachS, the sweep scheduler ComputeSweep and
// Service.Query run Stage 5 on (and core.RunBatch a sweep's Stage 4).

// probe records what EachS did with one sweep: how often each index
// ran, the share it was given, and the most workers ever in flight.
type probe struct {
	runs     []atomic.Int32
	shares   []int
	inFlight atomic.Int32
	peak     atomic.Int32
}

func newProbe(n int) *probe {
	return &probe{runs: make([]atomic.Int32, n), shares: make([]int, n)}
}

// enter and leave bracket one evaluation.
func (p *probe) enter(i int, inner par.Options) {
	p.runs[i].Add(1)
	p.shares[i] = inner.Workers
	now := p.inFlight.Add(int32(inner.Workers))
	for {
		peak := p.peak.Load()
		if now <= peak || p.peak.CompareAndSwap(peak, now) {
			return
		}
	}
}

func (p *probe) leave(i int) { p.inFlight.Add(-int32(p.shares[i])) }

func TestEachSSharesAndBudget(t *testing.T) {
	cases := []struct {
		name    string
		budget  int
		weights []int
	}{
		{"empty", 4, nil},
		{"single", 8, []int{5}},
		{"single-zero-weight", 3, []int{0}},
		{"flat", 2, []int{10, 10, 10, 10, 10}},
		{"flat-wide", 8, []int{7, 7, 7, 7, 7}},
		{"skewed", 8, []int{1000, 40, 30, 20, 10}},
		{"halves", 4, []int{50, 50}},
		{"serial-budget", 1, []int{3, 9, 1}},
		{"more-workers-than-s", 16, []int{1, 2, 3}},
		{"all-zero", 4, []int{0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.weights)
			p := newProbe(n)
			budget := par.Options{Workers: tc.budget, Grain: 7, Strategy: par.Cyclic}
			par.EachS(n, budget, func(i int) int { return tc.weights[i] }, func(i int, inner par.Options) {
				if inner.Grain != budget.Grain || inner.Strategy != budget.Strategy {
					t.Errorf("index %d: inner %+v lost the budget's grain or strategy", i, inner)
				}
				p.enter(i, inner)
				runtime.Gosched() // let whatever may overlap, overlap
				p.leave(i)
			})
			total := 0
			for _, w := range tc.weights {
				total += max(w, 1)
			}
			for i := range p.runs {
				if got := p.runs[i].Load(); got != 1 {
					t.Errorf("index %d evaluated %d times, want exactly once", i, got)
				}
				want := min(max(tc.budget*max(tc.weights[i], 1)/total, 1), tc.budget)
				if p.shares[i] != want {
					t.Errorf("index %d (weight %d of %d) got %d workers of %d, want %d", i, tc.weights[i], total, p.shares[i], tc.budget, want)
				}
			}
			if peak := int(p.peak.Load()); peak > tc.budget {
				t.Errorf("%d workers in flight at once, budget %d", peak, tc.budget)
			}
			if left := p.inFlight.Load(); left != 0 {
				t.Errorf("EachS returned with %d workers still in flight", left)
			}
		})
	}
}

// TestEachSFlatSweepRunsBudgetSideBySide: a flat sweep must really
// overlap. The first `budget` evaluations wait for each other, so the
// test deadlocks (and the run's -timeout reports it) if EachS starts
// fewer than budget at once, and the probe fails it if more.
func TestEachSFlatSweepRunsBudgetSideBySide(t *testing.T) {
	const n, budget = 7, 3
	p := newProbe(n)
	var barrier sync.WaitGroup
	barrier.Add(budget)
	var arrived atomic.Int32
	par.EachS(n, par.Options{Workers: budget}, func(int) int { return 1 }, func(i int, inner par.Options) {
		p.enter(i, inner)
		if arrived.Add(1) <= budget {
			barrier.Done()
			barrier.Wait()
		}
		p.leave(i)
	})
	if peak := p.peak.Load(); peak != budget {
		t.Fatalf("peak workers in flight = %d, want exactly the budget %d", peak, budget)
	}
}

// onCallersGoroutine reports whether the caller runs below the named
// test function on the same goroutine: a spawned goroutine's stack
// starts at its own entry function.
func onCallersGoroutine(testName string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "."+testName) {
			return true
		}
		if !more {
			return false
		}
	}
}

func TestEachSSingleRunsInlineWithWholeBudget(t *testing.T) {
	for _, budget := range []int{1, 2, 8} {
		ran := false
		par.EachS(1, par.Options{Workers: budget}, func(int) int { return 123 }, func(i int, inner par.Options) {
			ran = true
			if inner.Workers != budget {
				t.Errorf("budget %d: single s got %d workers", budget, inner.Workers)
			}
			if !onCallersGoroutine("TestEachSSingleRunsInlineWithWholeBudget") {
				t.Errorf("budget %d: single s ran on a spawned goroutine", budget)
			}
		})
		if !ran {
			t.Fatalf("budget %d: eval never ran", budget)
		}
	}
	// The unset budget is GOMAXPROCS, as everywhere in par.
	par.EachS(1, par.Options{}, func(int) int { return 1 }, func(_ int, inner par.Options) {
		if inner.Workers != runtime.GOMAXPROCS(0) {
			t.Errorf("unset budget: got %d workers, want GOMAXPROCS", inner.Workers)
		}
	})
}

func TestEachSDominantWeightKeepsAlmostEveryWorker(t *testing.T) {
	for _, budget := range []int{2, 4, 8, 32} {
		weights := []int{3, 1_000_000, 2, 5}
		p := newProbe(len(weights))
		par.EachS(len(weights), par.Options{Workers: budget}, func(i int) int { return weights[i] }, func(i int, inner par.Options) {
			p.enter(i, inner)
			p.leave(i)
		})
		if floor := budget - (len(weights) - 1); p.shares[1] < floor {
			t.Errorf("budget %d: dominant s got %d workers, want at least %d", budget, p.shares[1], floor)
		}
	}
}

// TestEachSStartsHeaviestFirst: with a budget of one the sweep runs
// inline, so the evaluation order is the start order.
func TestEachSStartsHeaviestFirst(t *testing.T) {
	weights := []int{4, 9, 4, 30, 1}
	var order []int
	par.EachS(len(weights), par.Options{Workers: 1}, func(i int) int { return weights[i] }, func(i int, _ par.Options) {
		order = append(order, i)
	})
	if want := []int{3, 1, 0, 2, 4}; !slices.Equal(order, want) {
		t.Fatalf("start order %v, want %v (heaviest first, ties by index)", order, want)
	}
}
