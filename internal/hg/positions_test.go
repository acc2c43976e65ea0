package hg_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

// checkPositions requires h's position array to hold, for every
// incidence of the edge orientation, the index a binary search finds for
// the hyperedge in its vertex's row.
func checkPositions(t *testing.T, label string, h *hg.Hypergraph) {
	t.Helper()
	pos, err := h.Positions()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if int64(len(pos)) != h.Incidences() {
		t.Fatalf("%s: %d positions for %d incidences", label, len(pos), h.Incidences())
	}
	eOff, _, _, _ := h.CSR()
	for e := range h.NumEdges() {
		for k, v := range h.EdgeVertices(uint32(e)) {
			want, found := slices.BinarySearch(h.VertexEdges(v), uint32(e))
			if got := pos[eOff[e]+int64(k)]; !found || int(got) != want {
				t.Fatalf("%s: hyperedge %d, vertex %d: position %d, binary search says %d (found %v)",
					label, e, v, got, want, found)
			}
		}
	}
}

// positionInputs is every way a hypergraph reaches Stage 3: built from
// slices, compacted and relabelled by Stage 1, built by a Version after
// an Edit, read from a .bin stream and mapped from a .bin file.
func positionInputs(t *testing.T) map[string]*hg.Hypergraph {
	edges := [][]uint32{{1, 3, 5}, {}, {3, 5, 7}, {1, 3, 5, 7, 9}, {9, 11}, {1, 11}, {}}
	community := gen.Community(gen.CommunityConfig{
		Seed: 5, NumVertices: 400, NumCommunities: 20, MeanCommunitySize: 12, EdgesPerCommunity: 6, Background: 80,
	})
	slicesH := hg.FromEdgeSlices(edges, 14)
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, community); err != nil {
		t.Fatal(err)
	}
	read, err := hgio.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "community.bin")
	if err := hgio.SaveFile(path, community); err != nil {
		t.Fatal(err)
	}
	mapped, err := hgio.MapBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	edited := hg.NewVersion(community, nil).Edit([]uint32{0, 7, 30}, [][]uint32{{2, 3, 5}, {399}})
	return map[string]*hg.Hypergraph{
		"FromEdgeSlices":  slicesH,
		"community":       community,
		"PreprocessOrder": hg.PreprocessOrder(slicesH, hg.EdgeOrder(slicesH, hg.RelabelDescending)).H,
		"Version.Flat":    edited.Flat(),
		"Version.Dual":    edited.Dual().Flat(),
		"ReadBinary":      read,
		"MapBinary":       mapped,
	}
}

// TestPositionsMatchBinarySearch: the position array equals a binary
// search for every incidence, in both orientations, on every input.
func TestPositionsMatchBinarySearch(t *testing.T) {
	for name, h := range positionInputs(t) {
		checkPositions(t, name, h)
		checkPositions(t, name+" (dual)", h.Dual())
		checkPositions(t, name+" (dual of dual)", h.Dual().Dual())
	}
}

// TestPositionsSharedByDual: every view of one storage reads the same
// array per orientation — (H*)* and a second Dual call build nothing —
// and the two orientations' arrays are distinct.
func TestPositionsSharedByDual(t *testing.T) {
	for name, h := range positionInputs(t) {
		if h.Incidences() == 0 {
			continue
		}
		at := func(h *hg.Hypergraph) *uint32 {
			pos, err := h.Positions()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return unsafe.SliceData(pos)
		}
		line, dual := at(h), at(h.Dual())
		if at(h.Dual().Dual()) != line || at(h.Dual()) != dual {
			t.Fatalf("%s: a Dual view built its own position array", name)
		}
		if line == dual {
			t.Fatalf("%s: both orientations read one array", name)
		}
	}
}

// TestPositionsBuiltOnce: goroutines that use the array for the first
// time at once, half of them through Dual views, get one array per
// orientation. Run under -race.
func TestPositionsBuiltOnce(t *testing.T) {
	h := gen.Community(gen.CommunityConfig{
		Seed: 7, NumVertices: 2000, NumCommunities: 80, MeanCommunitySize: 15, EdgesPerCommunity: 5, Background: 300,
	})
	const readers = 8
	got := make([]*uint32, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := h
			if i%2 == 1 {
				view = h.Dual()
			}
			pos, err := view.Positions()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = unsafe.SliceData(pos)
		}()
	}
	wg.Wait()
	for i := 2; i < readers; i++ {
		if got[i] != got[i%2] {
			t.Fatalf("reader %d read a different array than reader %d: built more than once", i, i%2)
		}
	}
}

// TestPositionsRejectDisagreeingOrientations: CSR arrays whose vertex
// orientation does not match the edge rows — a row naming the wrong
// hyperedge, a row naming one twice, a hyperedge ID out of range — have
// no position array in either orientation, and the error names the
// first incidence that does not match. Through the Dual view the bad
// rows are edge rows, so the last two fail the row check itself.
func TestPositionsRejectDisagreeingOrientations(t *testing.T) {
	// The paper example: {0,1,2}, {1,2,3}, {0,1,2,3,4}, {4,5}.
	eOff := []int64{0, 3, 6, 11, 13}
	eAdj := []uint32{0, 1, 2, 1, 2, 3, 0, 1, 2, 3, 4, 4, 5}
	vOff := []int64{0, 2, 5, 8, 10, 12, 13}
	good := []uint32{0, 2, 0, 1, 2, 0, 1, 2, 1, 2, 2, 3, 3}
	h, err := hg.FromCSR(4, 6, eOff, eAdj, vOff, good)
	if err != nil {
		t.Fatal(err)
	}
	checkPositions(t, "paper", h)
	checkPositions(t, "paper (dual)", h.Dual())
	for _, c := range []struct {
		name       string
		at         int
		e          uint32
		line, dual string
	}{
		{"vertex 0 lists hyperedge 1 for 2", 1, 1,
			"orientations disagree: hyperedge 2 lists vertex 0,", "orientations disagree: hyperedge 0 lists vertex 1,"},
		{"vertex 1 lists hyperedge 0 twice", 3, 0,
			"orientations disagree: hyperedge 1 lists vertex 1,", "hyperedge 1's row is not strictly ascending vertex IDs below 4"},
		{"vertex 5 lists hyperedge 4 of 4", 12, 4,
			"orientations disagree: hyperedge 3 lists vertex 5,", "hyperedge 5's row is not strictly ascending vertex IDs below 4"},
	} {
		vAdj := slices.Clone(good)
		vAdj[c.at] = c.e
		bad, err := hg.FromCSR(4, 6, eOff, eAdj, vOff, vAdj)
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range []struct {
			h    *hg.Hypergraph
			want string
		}{{bad, c.line}, {bad.Dual(), c.dual}} {
			if _, err := view.h.Positions(); err == nil || !strings.Contains(err.Error(), view.want) {
				t.Fatalf("%s: Positions failed with %v, want an error containing %q", c.name, err, view.want)
			}
		}
	}
}

// BenchmarkPositions builds the position array of the cold-single
// benchmark input (bench/dataset.go: the LiveJournal analog at 0.3 of
// scale 1), a fresh storage per iteration.
func BenchmarkPositions(b *testing.B) {
	h := gen.Community(gen.CommunityConfig{
		Seed: 1001, NumVertices: 9000, NumCommunities: 1050, MeanCommunitySize: 10,
		MaxCommunitySize: 1200, EdgesPerCommunity: 4, Background: 1200, Bridge: 0.25,
	})
	eOff, eAdj, vOff, vAdj := h.CSR()
	b.SetBytes(4 * h.Incidences())
	b.ResetTimer()
	for range b.N {
		fresh, err := hg.FromCSR(h.NumEdges(), h.NumVertices(), eOff, eAdj, vOff, vAdj)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fresh.Positions(); err != nil {
			b.Fatal(err)
		}
	}
}
