package main

import (
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// The datasets are the internal/experiments analogs, with their fixed
// generator seeds: over eight generator seeds the LiveJournal analog's wedge
// count ranged from 12.8 M to 14.8 M (a few giant communities carry most of
// it), which would spend every regression bound on input variance. --seed
// instead rotates the vertex and hyperedge labels: an isomorphic hypergraph
// with the generator's ID locality intact, so every seed does the same work
// on a different labelling and seed 1 is the analog itself.

// friendsterConfig is experiments.FriendsterAnalog(scale).
func friendsterConfig(scale int) gen.CommunityConfig {
	return gen.CommunityConfig{
		Seed:              1003,
		NumVertices:       scale * 60000,
		NumCommunities:    scale * 3000,
		MeanCommunitySize: 6,
		MaxCommunitySize:  120,
		EdgesPerCommunity: 3,
		Background:        scale * 8000,
	}
}

// liveJournalConfig is experiments.LiveJournalAnalog at 0.3 of scale 1
// (5 400 hyperedges): the full analog takes ≈240 ms per cold s=8 run on two
// cores, too few operations in a ten-second window to support a p90.
func liveJournalConfig() gen.CommunityConfig {
	return gen.CommunityConfig{
		Seed:              1001,
		NumVertices:       9000,
		NumCommunities:    1050,
		MeanCommunitySize: 10,
		MaxCommunitySize:  1200,
		EdgesPerCommunity: 4,
		Background:        1200,
		Bridge:            0.25,
	}
}

// makeDataset generates the analog and relabels it for the seed.
func makeDataset(cfg gen.CommunityConfig, seed int64) *hg.Hypergraph {
	return rotate(gen.Community(cfg), seed)
}

// rotate shifts vertex and hyperedge IDs cyclically by seed-derived offsets
// (both 0 at seed 1).
func rotate(h *hg.Hypergraph, seed int64) *hg.Hypergraph {
	n, m := h.NumVertices(), h.NumEdges()
	step := uint64(seed - 1)
	vShift := int(step * 7919 % uint64(n))
	eShift := int(step * 104729 % uint64(m))
	if vShift == 0 && eShift == 0 {
		return h
	}
	edges := make([][]uint32, m)
	for e := 0; e < m; e++ {
		vs := h.EdgeVertices(uint32(e))
		out := make([]uint32, len(vs))
		for i, v := range vs {
			out[i] = uint32((int(v) + vShift) % n)
		}
		edges[(e+eShift)%m] = out
	}
	return hg.FromEdgeSlices(edges, n)
}
