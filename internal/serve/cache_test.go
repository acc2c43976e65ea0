package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperline/internal/core"
)

func res(s int) *projEntry { return &projEntry{res: &core.PipelineResult{S: s}} }

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", res(1))
	c.Put("b", res(2))
	if _, ok := c.Get("a"); !ok { // promotes a
		t.Fatal("a must be cached")
	}
	c.Put("c", res(3)) // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b must have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s must survive", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("bad stats %+v", st)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache(2)
	c.Put("a", res(1))
	c.Put("a", res(9))
	if c.Len() != 1 {
		t.Fatalf("want 1 entry, got %d", c.Len())
	}
	got, _ := c.Get("a")
	if got.res.S != 9 {
		t.Fatalf("want refreshed value, got S=%d", got.res.S)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	if st := NewCache(0).Stats(); st.Capacity != DefaultCacheEntries {
		t.Fatalf("want default capacity %d, got %d", DefaultCacheEntries, st.Capacity)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%24)
				if _, ok := c.Get(k); !ok {
					c.Put(k, res(i))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	var sf singleflight
	var calls atomic.Int32
	gate := make(chan struct{})

	const n = 16
	var wg, entered sync.WaitGroup
	vals := make([]any, n)
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		entered.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			v, err, sh := sf.Do(context.Background(), "key", func(context.Context) (any, error) {
				calls.Add(1)
				<-gate // hold every concurrent caller in one flight
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	// Let every caller reach Do and pile up behind the in-flight
	// computation, then release it.
	entered.Wait()
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nShared := 0
	for i := 0; i < n; i++ {
		if vals[i] != "value" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if shared[i] {
			nShared++
		}
	}
	if nShared != n-1 {
		t.Fatalf("want %d shared callers, got %d", n-1, nShared)
	}
}

func TestSingleflightPanicReleasesKey(t *testing.T) {
	var sf singleflight
	_, err, _ := sf.Do(context.Background(), "key", func(context.Context) (any, error) { panic("boom") })
	if err == nil {
		t.Fatal("panicking call must surface an error")
	}
	// The key must be released: a later call runs fn again instead of
	// blocking on the dead flight.
	v, err, _ := sf.Do(context.Background(), "key", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("key wedged after panic: v=%v err=%v", v, err)
	}
}

func TestSingleflightSequentialCallsRunEachTime(t *testing.T) {
	var sf singleflight
	n := 0
	for i := 0; i < 3; i++ {
		sf.Do(context.Background(), "key", func(context.Context) (any, error) { n++; return nil, nil })
	}
	if n != 3 {
		t.Fatalf("sequential calls must each run fn, got %d", n)
	}
}
