package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/measure"
)

func res(s int) *projEntry { return &projEntry{res: &core.PipelineResult{S: s}} }

// pk is the projection key of dataset "g" at version 1 and s.
func pk(s int) projKey { return projKey{"g", 1, core.PipelineConfig{}.OutputKey(false, s)} }

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(pk(1), res(1))
	c.Put(pk(2), res(2))
	if _, ok := c.Get(pk(1)); !ok { // promotes s=1
		t.Fatal("s=1 must be cached")
	}
	c.Put(pk(3), res(3)) // evicts s=2 (least recently used)
	if _, ok := c.Get(pk(2)); ok {
		t.Fatal("s=2 must have been evicted")
	}
	for _, s := range []int{1, 3} {
		if _, ok := c.Get(pk(s)); !ok {
			t.Fatalf("s=%d must survive", s)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("bad stats %+v", st)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache(2)
	c.Put(pk(1), res(1))
	c.Put(pk(1), res(9))
	if c.Len() != 1 {
		t.Fatalf("want 1 entry, got %d", c.Len())
	}
	got, _ := c.Get(pk(1))
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
				k := pk((g+i)%24 + 1)
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

// TestKeyEncoding pins each key's text form — its spill address — to
// the exact strings earlier builds wrote, so spill directories and
// warm-start state from them still hit. Keys are built the way the
// query path builds them: from a configuration, a dataset and a
// version.
func TestKeyEncoding(t *testing.T) {
	cfg := func(algo core.Algorithm, relabel hg.RelabelOrder, toplex core.ToplexMode, noSqueeze bool) core.PipelineConfig {
		return core.PipelineConfig{Core: core.Config{Algorithm: algo, Relabel: relabel}, Toplex: toplex, NoSqueeze: noSqueeze}
	}
	for _, tc := range []struct {
		k    projKey
		want string
	}{
		{projKey{"paper", 1, core.PipelineConfig{}.OutputKey(false, 3)},
			"paper@1/line/s=3/class=exact,relabel=N,toplex=false,squeeze=true"},
		{projKey{"g", 7, cfg(core.AlgoHashmap, hg.RelabelAscending, core.ToplexOff, false).OutputKey(true, 2)},
			"g@7/clique/s=2/class=exact,relabel=A,toplex=false,squeeze=true"},
		{projKey{"g", 7, cfg(core.AlgoEnsemble, hg.RelabelDescending, core.ToplexOn, false).OutputKey(false, 5)},
			"g@7/line/s=5/class=exact,relabel=D,toplex=true,squeeze=true"},
		{projKey{"g", 2, cfg(core.AlgoAuto, hg.RelabelNone, core.ToplexOff, true).OutputKey(true, 1)},
			"g@2/clique/s=1/class=exact,relabel=N,toplex=false,squeeze=false"},
		{projKey{"g", 2, cfg(core.AlgoSetIntersection, hg.RelabelNone, core.ToplexOff, false).OutputKey(false, 4)},
			"g@2/line/s=4/class=shortcircuit,relabel=N,toplex=false,squeeze=true"},
		{projKey{"g@1/x", 2, core.PipelineConfig{}.OutputKey(false, 1)},
			"g@1/x@2/line/s=1/class=exact,relabel=N,toplex=false,squeeze=true"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("%+v:\n got  %q\n want %q", tc.k, got, tc.want)
		}
	}

	for _, tc := range []struct {
		k      projKey
		name   string
		params map[string]string
		want   string
	}{
		// PageRank by CG per component carries its solver revision
		// likewise; the global CG's ranks, spilled as "pagerank+cg", miss.
		{projKey{"g", 3, core.PipelineConfig{}.OutputKey(false, 2)}, "pagerank", map[string]string{"damping": "0.850"},
			"g@3/line/s=2/class=exact,relabel=N,toplex=false,squeeze=true/measure=pagerank+cgcc?damping=0.85"},
		{projKey{"g", 3, core.PipelineConfig{}.OutputKey(true, 2)}, "components", nil,
			"g@3/clique/s=2/class=exact,relabel=N,toplex=false,squeeze=true/measure=components?"},
		{projKey{"paper", 1, core.PipelineConfig{}.OutputKey(false, 1)}, "distances", map[string]string{"source": "3"},
			"paper@1/line/s=1/class=exact,relabel=N,toplex=false,squeeze=true/measure=distances?source=3"},
		// λ₂ by Lanczos carries its solver revision; the power
		// iteration's values spilled as "/measure=connectivity?" miss.
		{projKey{"g", 3, core.PipelineConfig{}.OutputKey(false, 4)}, "connectivity", nil,
			"g@3/line/s=4/class=exact,relabel=N,toplex=false,squeeze=true/measure=connectivity+lanczos?"},
	} {
		m, err := measure.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := measure.Canonicalize(m, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if got := (measureKey{tc.k, m.Name(), p.CanonicalString()}).String(); got != tc.want {
			t.Errorf("%s on %v:\n got  %q\n want %q", tc.name, tc.k, got, tc.want)
		}
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
