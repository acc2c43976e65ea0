package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

// pendingDeltas are small deltas against sweepDataset: far below the
// pending bound, so a chain of them leaves the dataset unbuilt.
var pendingDeltas = []*delta.Delta{
	{Inserts: [][]uint32{{0, 1, 2}}},
	{Deletes: []uint32{3}, Inserts: [][]uint32{{4, 5, 300}}},
	{Deletes: []uint32{0}},
}

// TestPendingVersionBuildsOnce: ingest composes pending versions and
// builds none; then eight concurrent cache-miss queries, one per s, on
// the pending version build its CSR exactly once between them, answer
// as a recompute on the eagerly applied chain does, and a later
// Hypergraph read returns the same build. Run under -race.
func TestPendingVersionBuildsOnce(t *testing.T) {
	svc := New(Config{})
	base := sweepDataset()
	svc.Add("g", base)
	want := base
	for _, d := range pendingDeltas {
		if _, err := svc.Ingest(context.Background(), "g", d, 0); err != nil {
			t.Fatal(err)
		}
		var err error
		if want, err = delta.Apply(want, d); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.datasetBuilds.Load(); n != 0 {
		t.Fatalf("ingest built the dataset %d times, want 0", n)
	}
	st, err := svc.Stats("g")
	if err != nil {
		t.Fatal(err)
	}
	if wantStats := hg.ComputeStats("g", want); st != wantStats {
		t.Fatalf("carried stats %+v, want %+v", st, wantStats)
	}

	const readers = 8
	got := make([]*QueryResult, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = svc.Query(context.Background(), lineQ("g", core.PipelineConfig{}, i+1))
		}()
	}
	wg.Wait()
	if n := svc.datasetBuilds.Load(); n != 1 {
		t.Fatalf("%d concurrent cache-miss queries built the dataset %d times, want once", readers, n)
	}
	for i, qr := range got {
		if qr == nil || qr.Entries[0].Err != nil {
			t.Fatalf("query at s=%d failed", i+1)
		}
		ref := direct(t, want, i+1, core.PipelineConfig{})
		if !reflect.DeepEqual(qr.Entries[0].Res.Graph.Edges(), ref.Graph.Edges()) ||
			!reflect.DeepEqual(qr.Entries[0].Res.HyperedgeIDs, ref.HyperedgeIDs) {
			t.Fatalf("s=%d: served projection differs from a recompute", i+1)
		}
	}
	h, err := svc.Hypergraph("g")
	if err != nil {
		t.Fatal(err)
	}
	gEOff, gEAdj, gVOff, gVAdj := h.CSR()
	wEOff, wEAdj, wVOff, wVAdj := want.CSR()
	if !reflect.DeepEqual(gEOff, wEOff) || !reflect.DeepEqual(gEAdj, wEAdj) ||
		!reflect.DeepEqual(gVOff, wVOff) || !reflect.DeepEqual(gVAdj, wVAdj) {
		t.Fatal("the built dataset differs from the eagerly applied chain")
	}
	if n := svc.datasetBuilds.Load(); n != 1 {
		t.Fatalf("a Hypergraph read after the build built again (%d builds)", n)
	}
}

// TestPendingVersionCloseReleasesRoot: a dataset whose root has
// out-of-heap storage stays the base of the pending versions ingest
// composes onto it, and Service.Close still releases that storage
// exactly once — a releaser that counts its calls, and a .bin file that
// Load maps, which must leave the process's mappings.
func TestPendingVersionCloseReleasesRoot(t *testing.T) {
	ingestAll := func(t *testing.T, svc *Service) {
		t.Helper()
		for _, d := range pendingDeltas {
			if _, err := svc.Ingest(context.Background(), "g", d, 0); err != nil {
				t.Fatal(err)
			}
		}
		if v, _, _ := svc.reg.Get("g"); !v.Pending() {
			t.Fatal("the chain was built; want it pending on the root")
		}
	}
	t.Run("releaser", func(t *testing.T) {
		svc := New(Config{})
		root := sweepDataset()
		released := 0
		root.SetReleaser(func() error { released++; return nil })
		svc.Add("g", root)
		ingestAll(t, svc)
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if released != 1 {
			t.Fatalf("Close released the root %d times, want once", released)
		}
	})
	t.Run("mapped file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := hgio.SaveBinary(path, sweepDataset()); err != nil {
			t.Fatal(err)
		}
		mapped := func() bool {
			maps, err := os.ReadFile("/proc/self/maps")
			if err != nil {
				t.Skip("no /proc/self/maps to read the mappings from")
			}
			return bytes.Contains(maps, []byte(path))
		}
		svc := New(Config{})
		if err := svc.Load("g", path); err != nil {
			t.Fatal(err)
		}
		if !mapped() {
			t.Skip("Load read the file instead of mapping it on this platform")
		}
		ingestAll(t, svc)
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if mapped() {
			t.Fatal("Close left the root's file mapped under a pending chain")
		}
	})
}

// TestCliqueIngestBuildsNothing: with clique projections cached, a
// delta's ingest does not build the pending dataset — the dual
// statistics the ingest walk reads are derived from the carried primal
// ones — and those derived statistics equal hg.ComputeStats on the
// built dual. Both hold before any re-query, which would recompute the
// clique keys the delta dropped and so build the dataset.
func TestCliqueIngestBuildsNothing(t *testing.T) {
	svc := New(Config{})
	want := sweepDataset()
	svc.Add("g", want)
	mustQuery(t, svc, cliqueQ("g", core.PipelineConfig{}, 1, 2, 64))
	for step, d := range pendingDeltas {
		res, err := svc.Ingest(context.Background(), "g", d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = delta.Apply(want, d); err != nil {
			t.Fatal(err)
		}
		if res.Patched != 0 || res.Migrated != 1 {
			t.Fatalf("step %d: ingest patched %d and migrated %d clique keys; want 0 and 1 (s=64)", step, res.Patched, res.Migrated)
		}
		if n := svc.datasetBuilds.Load(); n != 0 {
			t.Fatalf("step %d: ingest built the dataset %d times, want 0", step, n)
		}
		nd, ok := svc.reg.at("g", res.Version)
		if !ok {
			t.Fatal("registry lost the dataset")
		}
		if got, wantDual := nd.statsFor(true), hg.ComputeStats("g/dual", want.Dual()); got != wantDual {
			t.Fatalf("step %d: derived dual stats %+v\nwant %+v", step, got, wantDual)
		}
	}
}
