package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func coverage(t *testing.T, n int, opt Options) {
	t.Helper()
	seen := make([]atomic.Int32, n)
	For(n, opt, func(worker, i int) {
		if i < 0 || i >= n {
			t.Errorf("index %d out of range [0,%d)", i, n)
		}
		seen[i].Add(1)
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times, want 1 (n=%d opt=%+v)", i, got, n, opt)
		}
	}
}

func TestForCoversBlocked(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 65, 1000} {
		for _, w := range []int{1, 2, 3, 8} {
			for _, g := range []int{1, 3, 64, 1024} {
				coverage(t, n, Options{Workers: w, Grain: g, Strategy: Blocked})
			}
		}
	}
}

func TestForCoversCyclic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 65, 1000} {
		for _, w := range []int{1, 2, 3, 8} {
			coverage(t, n, Options{Workers: w, Strategy: Cyclic})
		}
	}
}

func TestForCoversProperty(t *testing.T) {
	f := func(n uint16, w uint8, g uint8, cyclic bool) bool {
		nn := int(n % 2048)
		opt := Options{Workers: int(w%16) + 1, Grain: int(g%128) + 1}
		if cyclic {
			opt.Strategy = Cyclic
		}
		seen := make([]atomic.Int32, nn)
		For(nn, opt, func(_, i int) { seen[i].Add(1) })
		for i := range seen {
			if seen[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerIndexInRange(t *testing.T) {
	for _, strat := range []Strategy{Blocked, Cyclic} {
		opt := Options{Workers: 4, Strategy: strat}
		For(100, opt, func(worker, i int) {
			if worker < 0 || worker >= 4 {
				t.Errorf("worker %d out of range", worker)
			}
		})
	}
}

func TestCyclicAssignment(t *testing.T) {
	// With static cyclic distribution, index i must be processed by
	// worker i % W.
	const n, w = 97, 4
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	var mu sync.Mutex
	For(n, Options{Workers: w, Strategy: Cyclic}, func(worker, i int) {
		mu.Lock()
		owner[i] = worker
		mu.Unlock()
	})
	for i, got := range owner {
		if got != i%w {
			t.Fatalf("index %d processed by worker %d, want %d", i, got, i%w)
		}
	}
}

func TestForChunksBlockedBounds(t *testing.T) {
	const n = 1000
	opt := Options{Workers: 5, Grain: 64, Strategy: Blocked}
	var covered atomic.Int64
	ForChunks(n, opt, func(worker, lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		if hi-lo > 64 {
			t.Errorf("chunk [%d,%d) exceeds grain", lo, hi)
		}
		covered.Add(int64(hi - lo))
	})
	if covered.Load() != n {
		t.Fatalf("covered %d indices, want %d", covered.Load(), n)
	}
}

func TestForSingleWorkerSequential(t *testing.T) {
	// One worker must see indices in ascending order under Blocked.
	var prev = -1
	For(500, Options{Workers: 1, Strategy: Blocked}, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("worker = %d, want 0", worker)
		}
		if i != prev+1 {
			t.Fatalf("out-of-order index %d after %d", i, prev)
		}
		prev = i
	})
}

func TestWorkerStats(t *testing.T) {
	s := NewWorkerStats(4)
	For(1000, Options{Workers: 4}, func(worker, i int) {
		s.Add(worker, 1)
	})
	if s.Total() != 1000 {
		t.Fatalf("Total = %d, want 1000", s.Total())
	}
	per := s.PerWorker()
	if len(per) != 4 {
		t.Fatalf("PerWorker len = %d, want 4", len(per))
	}
	var sum int64
	for _, v := range per {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("sum of per-worker = %d, want 1000", sum)
	}
}

func TestStrategyString(t *testing.T) {
	if Blocked.String() != "B" || Cyclic.String() != "C" {
		t.Fatal("unexpected Strategy notation")
	}
	if Strategy(9).String() != "?" {
		t.Fatal("unknown strategy should stringify to ?")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.workers() < 1 {
		t.Fatal("default workers < 1")
	}
	if o.grain() != DefaultGrain {
		t.Fatalf("default grain = %d, want %d", o.grain(), DefaultGrain)
	}
}

func benchmarkFor(b *testing.B, opt Options) {
	st := NewWorkerStats(opt.workers())
	for i := 0; i < b.N; i++ {
		For(1<<16, opt, func(w, i int) { st.Add(w, int64(i&7)) })
	}
}

func BenchmarkForBlocked(b *testing.B) { benchmarkFor(b, Options{Strategy: Blocked, Grain: 256}) }

func BenchmarkForCyclic(b *testing.B) { benchmarkFor(b, Options{Strategy: Cyclic}) }

// PerWorker returns a copy of the per-worker counters.
func (s *WorkerStats) PerWorker() []int64 {
	out := make([]int64, len(s.slots))
	for i := range s.slots {
		out[i] = s.slots[i].v
	}
	return out
}
