package serve

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"hyperline/internal/algo"
	"hyperline/internal/core"
	"hyperline/internal/hgio"
	"hyperline/internal/measure"
	"hyperline/internal/par"
	"hyperline/internal/spectral"
)

func TestSpillStoreRoundTripAndBudget(t *testing.T) {
	dir := t.TempDir()
	st, err := newSpillStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("missing"); ok {
		t.Fatal("empty store must miss")
	}
	st.Put("alpha", []byte("payload-a"))
	got, ok := st.Get("alpha")
	if !ok || string(got) != "payload-a" {
		t.Fatalf("Get(alpha) = %q, %v", got, ok)
	}
	// Overwrite replaces in place without double-counting bytes.
	st.Put("alpha", []byte("payload-a-longer"))
	if got, ok := st.Get("alpha"); !ok || string(got) != "payload-a-longer" {
		t.Fatalf("after overwrite: %q, %v", got, ok)
	}
	if sp := st.Stats(); sp.Entries != 1 || sp.Writes != 2 {
		t.Fatalf("stats %+v, want Entries=1 Writes=2", sp)
	}

	// A tight budget evicts least recently used entries but always keeps
	// the entry just written.
	entrySize := int64(12 + len("k0") + 64)
	st2, err := newSpillStore(t.TempDir(), 2*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	st2.Put("k0", payload)
	st2.Put("k1", payload)
	st2.Put("k2", payload) // over budget: k0 (LRU) must go
	if _, ok := st2.Get("k0"); ok {
		t.Fatal("k0 must be evicted by the byte budget")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := st2.Get(k); !ok {
			t.Fatalf("%s must survive the byte budget", k)
		}
	}
	sp := st2.Stats()
	if sp.Evictions != 1 || sp.Bytes > 2*entrySize {
		t.Fatalf("stats %+v, want Evictions=1 and Bytes <= %d", sp, 2*entrySize)
	}
}

// TestSpillStoreReopenRebuildsIndex: the directory is its own index — a
// fresh store over an existing directory serves every prior entry.
func TestSpillStoreReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := newSpillStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("one", []byte("1"))
	st.Put("two", []byte("22"))

	st2, err := newSpillStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp := st2.Stats(); sp.Entries != 2 {
		t.Fatalf("reopened store has %d entries, want 2", sp.Entries)
	}
	for k, want := range map[string]string{"one": "1", "two": "22"} {
		if got, ok := st2.Get(k); !ok || string(got) != want {
			t.Fatalf("reopened Get(%s) = %q, %v", k, got, ok)
		}
	}
}

// TestSpillCrashConsistency: a crash between writing a spill file and
// making it visible leaves only a tmp file (rename is the commit
// point). Boot sweeps tmp files and drops corrupt or truncated entries,
// so the worst outcome of any crash is a clean cold miss — never a
// wrong answer, never a poisoned index.
func TestSpillCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	st, err := newSpillStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("alpha", []byte("payload-a"))
	st.Put("beta", []byte("payload-b"))

	// Simulated crash debris: a torn in-progress write, a foreign file
	// with the right suffix, and an entry truncated mid-key.
	if err := os.WriteFile(filepath.Join(dir, spillTmpPrefix+"123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+spillSuffix), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.spillPath("beta"), 13); err != nil {
		t.Fatal(err)
	}

	st2, err := newSpillStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.Get("alpha"); !ok || string(got) != "payload-a" {
		t.Fatalf("intact entry lost after crash recovery: %q, %v", got, ok)
	}
	if _, ok := st2.Get("beta"); ok {
		t.Fatal("truncated entry must be a clean miss, not a hit")
	}
	if sp := st2.Stats(); sp.Entries != 1 {
		t.Fatalf("recovered store has %d entries, want 1", sp.Entries)
	}
	// The debris is gone from disk, not just unindexed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), spillTmpPrefix) {
			t.Fatalf("tmp file %s survived boot sweep", de.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%d files left in spill dir, want 1 (alpha only)", len(entries))
	}
	// A recomputed value re-spills cleanly over the dropped key.
	st2.Put("beta", []byte("payload-b"))
	if got, ok := st2.Get("beta"); !ok || string(got) != "payload-b" {
		t.Fatalf("re-spill after crash: %q, %v", got, ok)
	}
}

// TestSpillChurnByteIdentical hammers a deliberately tiny memory LRU
// backed by a spill directory from 8 goroutines, so entries constantly
// evict to disk and return. Every answer must be byte-identical to a
// direct pipeline run, and the compute counter must obey the tier
// arithmetic: work only runs when both tiers miss. Run under -race this
// is the memory-safety test for the lock/IO split in the spill path.
func TestSpillChurnByteIdentical(t *testing.T) {
	h := randomHypergraph(13, 250, 180, 5)
	svc := New(Config{CacheEntries: 2})
	if err := svc.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	svc.Add("rand", h)
	cfg := core.PipelineConfig{}

	const maxS = 6
	want := make(map[int]*core.PipelineResult, maxS)
	for sVal := 1; sVal <= maxS; sVal++ {
		want[sVal] = direct(t, h, sVal, cfg)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sVal := 1 + (g+i)%maxS
				qr, err := svc.Query(context.Background(), lineQ("rand", cfg, sVal))
				if err != nil {
					t.Error(err)
					return
				}
				res := qr.Entries[0].Res
				if !reflect.DeepEqual(res.Graph.Edges(), want[sVal].Graph.Edges()) {
					t.Errorf("s=%d: churned answer differs from direct run", sVal)
					return
				}
				if !reflect.DeepEqual(res.HyperedgeIDs, want[sVal].HyperedgeIDs) {
					t.Errorf("s=%d: churned hyperedge IDs differ from direct run", sVal)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	cs := svc.CacheStats()
	computes := svc.projectionComputes.Load()
	if cs.DiskHits == 0 {
		t.Fatalf("churn over a 2-entry LRU produced no disk hits: %+v", cs)
	}
	if computes > cs.Misses-cs.DiskHits {
		t.Fatalf("computes %d > memory misses %d - disk hits %d: the disk tier is not short-circuiting recomputation",
			computes, cs.Misses, cs.DiskHits)
	}
	if sp := svc.SpillStats(); sp.Writes == 0 || sp.Hits != cs.DiskHits {
		t.Fatalf("spill stats %+v disagree with cache disk hits %d", sp, cs.DiskHits)
	}
}

// TestSaveRestoreWarmStart is the end-to-end warm-start contract: a
// snapshotting shutdown followed by a restore into a fresh Service
// serves the same queries from the spill tier — same versions, same
// bytes, zero recomputation on the first pass.
func TestSaveRestoreWarmStart(t *testing.T) {
	stateDir := t.TempDir()
	spillDir := filepath.Join(stateDir, "spill")
	h := randomHypergraph(17, 200, 150, 5)
	cfg := core.PipelineConfig{}
	sweep := []int{1, 2, 3, 4}

	svc1 := New(Config{})
	if err := svc1.EnableSpill(spillDir, 0); err != nil {
		t.Fatal(err)
	}
	svc1.Add("w", h)
	want := make(map[int]*core.PipelineResult, len(sweep))
	for _, sVal := range sweep {
		want[sVal] = mustQuery(t, svc1, lineQ("w", cfg, sVal)).Entries[0].Res
	}
	measureQ := lineQ("w", cfg, 2)
	measureQ.Measure = "components"
	wantMeasure := mustQuery(t, svc1, measureQ).Entries[0].Measure
	version := svc1.Datasets()[0].Version
	if err := svc1.SaveState(stateDir); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new Service over the same directories.
	svc2 := New(Config{})
	if err := svc2.EnableSpill(spillDir, 0); err != nil {
		t.Fatal(err)
	}
	names, err := svc2.RestoreState(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "w" {
		t.Fatalf("restored %v, want [w]", names)
	}
	ds := svc2.Datasets()
	if len(ds) != 1 || ds[0].Version != version {
		t.Fatalf("restored version %d, want %d (key validity depends on it)", ds[0].Version, version)
	}

	// First pass after restart: everything is served warm (cached=true,
	// from disk), nothing recomputes, and the bytes match the pre-restart
	// answers.
	for _, sVal := range sweep {
		e := mustQuery(t, svc2, lineQ("w", cfg, sVal)).Entries[0]
		res := e.Res
		if !e.Cached {
			t.Fatalf("s=%d: first post-restart query must be served from the spill tier", sVal)
		}
		if !reflect.DeepEqual(res.Graph.Edges(), want[sVal].Graph.Edges()) {
			t.Fatalf("s=%d: restored projection differs from pre-restart run", sVal)
		}
		if !reflect.DeepEqual(res.HyperedgeIDs, want[sVal].HyperedgeIDs) {
			t.Fatalf("s=%d: restored hyperedge IDs differ from pre-restart run", sVal)
		}
	}
	cs := svc2.CacheStats()
	if computes := svc2.projectionComputes.Load(); computes != 0 {
		t.Fatalf("%d projections recomputed on the warm first pass, want 0 (stats %+v)", computes, cs)
	}
	if cs.DiskHits != int64(len(sweep)) {
		t.Fatalf("disk hits %d, want %d — warm-start hit rate below 100%%", cs.DiskHits, len(sweep))
	}

	// Measures restore too, through their own codec.
	m2 := mustQuery(t, svc2, measureQ).Entries[0].Measure
	if !m2.Cached {
		t.Fatal("first post-restart measure must be served from the spill tier")
	}
	if !reflect.DeepEqual(m2.Value, wantMeasure.Value) {
		t.Fatal("restored measure value differs from pre-restart value")
	}
	if got := svc2.MeasureCacheStats(); got.Computes != 0 {
		t.Fatalf("%d measures recomputed on the warm first pass, want 0", got.Computes)
	}

	// Replacing the dataset after a restore must mint a version beyond
	// every restored one — the preserved counter prevents key collisions.
	svc2.Add("w", paperExample())
	if v2 := svc2.Datasets()[0].Version; v2 <= version {
		t.Fatalf("post-restore replacement got version %d, want > %d", v2, version)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureRevisionMissesEarlierSpill spills one connectivity, one
// pagerank and one components entry under the key text builds before
// the Lanczos λ₂ and CG PageRank solvers wrote, and the pagerank entry
// also under the text of the global CG ("pagerank+cg"), then starts a
// service on that spill directory. The connectivity and pagerank
// entries, earlier solvers' values, must miss and be recomputed; the
// components entry, whose key text did not change, must be served from
// disk. So must an s = 3 projection spilled under the literal text that
// builds taking the Table III knobs on /v2/query wrote for the class
// the service still answers: its entries stay valid.
func TestMeasureRevisionMissesEarlierSpill(t *testing.T) {
	dir := t.TempDir()
	h := randomHypergraph(17, 200, 150, 5)
	const sVal = 2
	svc := New(Config{})
	svc.Add("w", h)
	proj := projKey{"w", svc.Datasets()[0].Version, core.PipelineConfig{}.OutputKey(false, sVal)}
	res := mustQuery(t, svc, lineQ("w", core.PipelineConfig{}, sVal)).Entries[0].Res

	earlier, err := newSpillStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spilled := map[string]*MeasureEntry{}
	for _, name := range []string{"connectivity", "pagerank", "components"} {
		m, err := measure.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := measure.Canonicalize(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		val, err := m.Compute(context.Background(), res, p, par.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Values no solver returns, so serving them is told apart.
		switch {
		case val.Scalar != nil:
			old := *val.Scalar + 0.5
			val = &measure.Value{Scalar: &old}
		case val.Scores != nil:
			old := slices.Clone(val.Scores)
			old[0] += 0.5
			val = &measure.Value{Scores: old}
		}
		e := NewMeasureEntry(res, val)
		data, err := encodeMeasureEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s/measure=%s?%s", proj, name, p.CanonicalString())
		if name == "components" {
			key = "w@1/line/s=2/class=exact,relabel=N,toplex=false,squeeze=true/measure=components?"
		}
		earlier.Put(key, data)
		if name == "pagerank" {
			earlier.Put(fmt.Sprintf("%s/measure=pagerank+cg?%s", proj, p.CanonicalString()), data)
		}
		spilled[name] = e
	}
	s3 := direct(t, h, 3, core.PipelineConfig{})
	data, err := encodeProjection(&projEntry{res: s3})
	if err != nil {
		t.Fatal(err)
	}
	earlier.Put("w@1/line/s=3/class=exact,relabel=N,toplex=false,squeeze=true", data)
	if err := svc.EnableSpill(dir, 0); err != nil {
		t.Fatal(err)
	}

	e3 := mustQuery(t, svc, lineQ("w", core.PipelineConfig{}, 3)).Entries[0]
	if !e3.Cached || svc.CacheStats().DiskHits != 1 || !reflect.DeepEqual(e3.Res.Graph.Edges(), s3.Graph.Edges()) {
		t.Fatalf("s=3 projection spilled under the earlier key text was not served from disk (cached=%v, %+v)", e3.Cached, svc.CacheStats())
	}
	q := lineQ("w", core.PipelineConfig{}, sVal)
	q.Measure = "components"
	cc := mustQuery(t, svc, q).Entries[0].Measure
	if !cc.Cached || !reflect.DeepEqual(cc.Value, spilled["components"].Value) {
		t.Fatalf("components spilled under its unchanged key text was not served from disk (cached=%v)", cc.Cached)
	}
	q.Measure = "connectivity"
	conn := mustQuery(t, svc, q).Entries[0].Measure
	want := spectral.NormalizedAlgebraicConnectivity(res.Graph, spectral.Options{})
	if conn.Cached || math.Float64bits(*conn.Value.Scalar) != math.Float64bits(want) {
		t.Fatalf("connectivity = %v (cached=%v), want a recompute %v, not the earlier build's %v",
			*conn.Value.Scalar, conn.Cached, want, *spilled["connectivity"].Value.Scalar)
	}
	q.Measure = "pagerank"
	pr := mustQuery(t, svc, q).Entries[0].Measure
	wantPR := algo.PageRank(res.Graph, algo.PageRankOptions{})
	if pr.Cached || !reflect.DeepEqual(pr.Value.Scores, wantPR) {
		t.Fatalf("pagerank (cached=%v) is not a recompute: rank[0] = %v, want %v, the earlier build's %v",
			pr.Cached, pr.Value.Scores[0], wantPR[0], spilled["pagerank"].Value.Scores[0])
	}
	if got := svc.MeasureCacheStats().Computes; got != 2 {
		t.Fatalf("%d measure computes, want 2 (connectivity and pagerank)", got)
	}
}

// TestPipelineDeterministicAcrossLoadStrategies pins byte-identical
// pipeline output across the two ways a .bin dataset can enter memory
// (parsed heap copy vs mmap alias) and across s-overlap strategies:
// the storage tier must be invisible to the math.
func TestPipelineDeterministicAcrossLoadStrategies(t *testing.T) {
	h := randomHypergraph(23, 200, 150, 5)
	path := filepath.Join(t.TempDir(), "d.bin")
	if err := hgio.SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	loaded, err := hgio.LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := hgio.MapBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Fatal("MapBinary result must report Mapped()")
	}

	for _, algo := range []core.Algorithm{core.AlgoSetIntersection, core.AlgoHashmap, core.AlgoEnsemble} {
		cfg := core.PipelineConfig{Core: core.Config{Algorithm: algo}}
		for sVal := 1; sVal <= 3; sVal++ {
			a := direct(t, loaded, sVal, cfg)
			b := direct(t, mapped, sVal, cfg)
			if !reflect.DeepEqual(a.Graph.Edges(), b.Graph.Edges()) {
				t.Fatalf("algo=%d s=%d: mapped pipeline output differs from loaded", algo, sVal)
			}
			if !reflect.DeepEqual(a.HyperedgeIDs, b.HyperedgeIDs) {
				t.Fatalf("algo=%d s=%d: hyperedge IDs differ across load strategies", algo, sVal)
			}
		}
	}
}
