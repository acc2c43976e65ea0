package serve

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/gen"
	"hyperline/internal/par"
)

// BenchmarkIngestCached times Service.Ingest alone, one delta per op,
// with line s = 1..8 cached under relabel N, the only order ingest
// patches, on the Friendster analog the ingest-only benchmark workload
// streams into. The deltas have that workload's shape: the oldest live
// insert deleted and two hyperedges of 3–4 random vertices inserted.
//
//	go test -run '^$' -bench IngestCached -benchmem ./internal/serve/
func BenchmarkIngestCached(b *testing.B) {
	benchIngest(b, nil)
}

// BenchmarkIngestThenRead is BenchmarkIngestCached plus, after each
// delta, one read of every key it patched: a cache hit whose /v2/query
// body — node and edge counts and hyperedge IDs, no edge list — is
// written as ingest-mixed's range reads ask for it. It prices what a
// patch leaves to its first reader: expanding the IDs it holds as a
// view.
//
//	go test -run '^$' -bench IngestThenRead -benchmem ./internal/serve/
func BenchmarkIngestThenRead(b *testing.B) {
	var sVals []int
	benchIngest(b, func(svc *Service, res *IngestResult) {
		sVals = sVals[:0]
		for s := 1; s <= 8; s++ {
			if e, ok := svc.cache.Get(projKey{"g", res.Version, core.PipelineConfig{}.OutputKey(false, s)}); ok && e.res.Plan.Strategy == "patch" {
				sVals = append(sVals, s)
			}
		}
		if len(sVals) == 0 {
			return
		}
		qr, err := svc.Query(context.Background(), lineQ("g", core.PipelineConfig{}, sVals...))
		if err != nil {
			b.Fatal(err)
		}
		writeQueryV2(discardResponse{}, queryHeadJSON{Dataset: "g", Kind: "line"}, qr, false, par.Options{})
	})
}

// benchIngest runs BenchmarkIngestCached's delta stream, calling read,
// when non-nil, after each ingest.
func benchIngest(b *testing.B, read func(*Service, *IngestResult)) {
	h := gen.Community(gen.CommunityConfig{
		Seed: 1003, NumVertices: 60000, NumCommunities: 3000,
		MeanCommunitySize: 6, MaxCommunitySize: 120, EdgesPerCommunity: 3,
		Background: 8000,
	})
	svc := New(Config{})
	defer svc.Close()
	svc.Add("g", h)
	for _, e := range mustQuery(b, svc, lineQ("g", core.PipelineConfig{}, 1, 2, 3, 4, 5, 6, 7, 8)).Entries {
		if e.Err != nil {
			b.Fatal(e.Err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	next := uint32(h.NumEdges())
	var live []uint32
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &delta.Delta{}
		if len(live) > 0 {
			d.Deletes, live = live[:1], live[1:]
		}
		for k := 0; k < 2; k++ {
			vs := make([]uint32, 0, 4)
			for len(vs) < 3+k%2 {
				if v := uint32(rng.Intn(h.NumVertices())); !slices.Contains(vs, v) {
					vs = append(vs, v)
				}
			}
			d.Inserts = append(d.Inserts, vs)
			live = append(live, next)
			next++
		}
		res, err := svc.Ingest(ctx, "g", d, 0)
		if err != nil {
			b.Fatal(err)
		}
		if read != nil {
			read(svc, res)
		}
	}
}
