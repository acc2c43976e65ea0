package core

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// FuzzParseSValues fuzzes the s-list specification parser that every
// user-facing surface (CLI -s, HTTP s=, warmup bodies) funnels into.
// Invariants: no panic; on success the expansion is non-empty, within
// the MaxSValues bound, all values ≥ 1, and rendering the values back
// as an explicit list re-parses to the same distinct set.
func FuzzParseSValues(f *testing.F) {
	for _, seed := range []string{
		"1", "8", "1,2,5", "2:6", "1,4:6,12", " 8 ", "0", "-3", "a",
		"1:1024", "5:2", "1,,2", ":", "1:", ":4", "1:9999999",
		"4294967296", "1,1,1,1", "10:9", "2 : 6", "+3", "0x10",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		vals, err := ParseSValues(spec)
		if err != nil {
			if vals != nil {
				t.Fatalf("error with non-nil values: %v / %v", vals, err)
			}
			return
		}
		if len(vals) == 0 || len(vals) > MaxSValues {
			t.Fatalf("ParseSValues(%q) expanded to %d values", spec, len(vals))
		}
		for _, v := range vals {
			if v < 1 {
				t.Fatalf("ParseSValues(%q) produced s=%d < 1", spec, v)
			}
		}
		if err := ValidateSValues(vals); err != nil {
			t.Fatalf("ParseSValues(%q) output fails ValidateSValues: %v", spec, err)
		}
		// Round trip: the explicit-list rendering of the expansion must
		// re-parse to the same distinct set.
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = strconv.Itoa(v)
		}
		again, err := ParseSValues(strings.Join(parts, ","))
		if err != nil {
			t.Fatalf("round-trip of %q failed: %v", spec, err)
		}
		if !reflect.DeepEqual(DistinctS(again), DistinctS(vals)) {
			t.Fatalf("round-trip of %q changed the distinct set: %v vs %v",
				spec, DistinctS(again), DistinctS(vals))
		}
	})
}

// FuzzParseNotation fuzzes the Table III notation parser. Invariants:
// no panic; on success the parsed configuration names the planner or a
// strategy that exists (the retired "S"/"spgemm" spellings never
// parse), and its Notation() is canonical — re-parsing it yields the
// identical configuration.
func FuzzParseNotation(f *testing.F) {
	seeds := append(AllNotations(),
		"auto", "spgemm", "Spgemm", "ABN", "SBN", "SCD", "3CA", "", "2B", "2BAX", "xBN", "2xN", "2Bx", "żBN")
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseNotation(s)
		if err != nil {
			return
		}
		if _, serr := StrategyFor(cfg.Algorithm); cfg.Algorithm != AlgoAuto && serr != nil {
			t.Fatalf("%q parsed to algorithm %s, which has no strategy", s, cfg.Algorithm)
		}
		round := cfg.Notation()
		cfg2, err := ParseNotation(round)
		if err != nil {
			t.Fatalf("Notation() of parsed %q is unparseable: %q: %v", s, round, err)
		}
		if cfg2 != cfg {
			t.Fatalf("notation round-trip drift: %q -> %+v -> %q -> %+v", s, cfg, round, cfg2)
		}
	})
}

// fuzzHypergraph decodes fuzz bytes into a small hypergraph and an s:
// byte 0 picks s in 1..4, byte 1 the vertex count in 1..16, and every
// later byte either closes the current hyperedge (top bit set) or adds
// a vertex to it. At most 24 hyperedges, so the quadratic oracle stays
// cheap; empty and duplicate hyperedges are kept — they are inputs too.
func fuzzHypergraph(data []byte) (*hg.Hypergraph, int) {
	if len(data) < 2 {
		return hg.FromEdgeSlices(nil, 1), 1
	}
	s := 1 + int(data[0]%4)
	n := 1 + int(data[1]%16)
	edges := [][]uint32{nil}
	for _, b := range data[2:] {
		if b&0x80 != 0 {
			if len(edges) == 24 {
				break
			}
			edges = append(edges, nil)
			continue
		}
		edges[len(edges)-1] = append(edges[len(edges)-1], uint32(int(b)%n))
	}
	return hg.FromEdgeSlices(edges, n), s
}

// FuzzStage1Agrees is the differential target for Stage 1: on any
// decodable hypergraph — empty and duplicate hyperedges and isolated
// vertices included — RunBatch equals the Preprocess-first reference
// under every relabel, toplex and squeeze setting, in both orientations.
func FuzzStage1Agrees(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 2, 0x80, 1, 2, 3, 0x80, 0, 1, 2, 3, 4, 0x80, 4, 5}) // the paper's example, s=1
	f.Add([]byte{1, 15, 1, 3, 5, 0x80, 0x80, 3, 5, 7, 0x80, 1, 3, 5, 7, 9, 0x80, 1, 3, 5})
	f.Add([]byte{2, 9, 0, 1, 2, 0x80, 1, 2, 3, 0x80, 2, 3, 4, 0x80, 0, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, s := fuzzHypergraph(data)
		checkStage1Agrees(t, "line", h, s)
		checkStage1Agrees(t, "dual", h.Dual(), s)
	})
}

// FuzzStrategiesAgree is the differential target for Stage 3: on any
// decodable hypergraph every strategy (at exact weights),
// under both workload distributions, returns the all-pairs oracle's
// edge list byte for byte, and the materialization-free component BFS
// agrees with the components of that list.
func FuzzStrategiesAgree(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 2, 0x80, 1, 2, 3, 0x80, 0, 1, 2, 3, 4, 0x80, 4, 5}) // the paper's example, s=1
	f.Add([]byte{1, 9, 0, 1, 2, 3, 0x80, 0, 1, 2, 3, 0x80, 0x80, 3, 0x80, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, s := fuzzHypergraph(data)
		want := NaiveAllPairs(h, s)
		for _, strat := range Strategies() {
			for _, part := range []par.Strategy{par.Blocked, par.Cyclic} {
				cfg := Config{DisableShortCircuit: true, Workers: 3, Partition: part, Grain: 2}
				got, _, err := strat.Edges(context.Background(), h, []int{s}, cfg)
				if err != nil {
					t.Fatalf("%s: %v", strat.Name(), err)
				}
				if !edgeListsEqual(want, got[s]) {
					t.Fatalf("%s %v s=%d: %v, oracle %v", strat.Name(), part, s, got[s], want)
				}
			}
		}
		// Components of the oracle's list, labelled by minimum member.
		label := make([]uint32, h.NumEdges())
		for e := range label {
			label[e] = uint32(e)
		}
		find := func(e uint32) uint32 {
			for label[e] != e {
				e = label[e]
			}
			return e
		}
		for _, e := range want {
			if a, b := find(e.U), find(e.V); a != b {
				label[max(a, b)] = min(a, b)
			}
		}
		for e, got := range SConnectedComponentsDirect(h, s) {
			if want := find(uint32(e)); got != want {
				t.Fatalf("SConnectedComponentsDirect s=%d: hyperedge %d in component %d, oracle says %d", s, e, got, want)
			}
		}
	})
}
