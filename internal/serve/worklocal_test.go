package serve

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// TestIngestWorkIsLocal guards the O(delta) ingest path without a
// clock. The same delta stream runs, with s = 1..8 cached in the line
// orientation, on a dataset and on that dataset plus eight times as many
// pairwise-disjoint hyperedges over fresh vertices, which no delta
// touches and no projection holds. Per delta, the bytes the larger
// dataset's ingests allocate beyond the smaller one's may only be the
// per-node arrays a patched key holds once its rows are built past the
// pending bound — its squeeze map and row offsets, 12 bytes per node —
// never anything sized by the dataset, like a working-order array of
// every hyperedge. The keys are under relabel N, the only order ingest
// patches.
func TestIngestWorkIsLocal(t *testing.T) {
	t.Run("relabel=N", func(t *testing.T) { ingestWorkIsLocal(t, core.PipelineConfig{}) })
}

func ingestWorkIsLocal(t *testing.T, cfg core.PipelineConfig) {
	small := gen.Community(gen.CommunityConfig{
		Seed: 15, NumVertices: 3000, NumCommunities: 300,
		MeanCommunitySize: 10, EdgesPerCommunity: 6,
	})
	edges := small.EdgeSlices()
	for i, n := 0, uint32(small.NumVertices()); i < 8*small.NumEdges(); i, n = i+1, n+3 {
		edges = append(edges, []uint32{n, n + 1, n + 2})
	}
	big := hg.FromEdgeSlices(edges, small.NumVertices()+3*8*small.NumEdges())

	const warm, measured = 2, 12
	type run struct {
		bytes  uint64 // allocated by the measured ingests
		result uint64 // 12 bytes per node of every key they patched
	}
	ingest := func(h *hg.Hypergraph) run {
		svc := New(Config{})
		defer svc.Close()
		svc.Add("g", h)
		for _, e := range mustQuery(t, svc, lineQ("g", cfg, 1, 2, 3, 4, 5, 6, 7, 8)).Entries {
			if e.Err != nil {
				t.Fatal(e.Err)
			}
		}
		rng := rand.New(rand.NewSource(7))
		var live []uint32
		var r run
		for i := 0; i < warm+measured; i++ {
			v, _, _ := svc.reg.Get("g")
			d := &delta.Delta{}
			if i > 0 {
				d.Deletes, live = live[:1], live[1:]
			}
			for k := 0; k < 2; k++ {
				d.Inserts = append(d.Inserts, []uint32{uint32(rng.Intn(1000)), uint32(1000 + rng.Intn(1000)), uint32(2000 + rng.Intn(1000))})
				live = append(live, uint32(v.NumEdges()+k))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := svc.Ingest(context.Background(), "g", d, 0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if i < warm {
				continue
			}
			r.bytes += after.TotalAlloc - before.TotalAlloc
			for s := 1; s <= res.AffectedSLine; s++ {
				if e, ok := svc.cache.Get(projKey{"g", res.Version, cfg.OutputKey(false, s)}); ok {
					r.result += 12 * uint64(e.res.Graph.NumNodes())
				}
			}
		}
		if n := svc.datasetBuilds.Load(); n != 0 {
			t.Fatalf("the stream built the dataset %d times; want it pending throughout", n)
		}
		return r
	}
	s, b := ingest(small), ingest(big)
	if s.result == 0 {
		t.Fatal("no delta patched a key")
	}
	t.Logf("%d deltas: %d bytes on %d hyperedges, %d on %d; patched result slices %d bytes",
		measured, s.bytes, small.NumEdges(), b.bytes, big.NumEdges(), b.result)
	if b.bytes > s.bytes+b.result {
		t.Fatalf("%d deltas allocated %d bytes on %d hyperedges and %d on %d: %d more than the %d bytes of patched result slices",
			measured, s.bytes, small.NumEdges(), b.bytes, big.NumEdges(), b.bytes-s.bytes, b.result)
	}
}
