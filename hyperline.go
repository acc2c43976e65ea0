// Package hyperline computes high-order (s ≥ 1) line graphs of
// non-uniform hypergraphs and s-measures on them, reproducing the
// framework of Liu et al., "High-order Line Graphs of Non-uniform
// Hypergraphs: Algorithms, Applications, and Experimental Analysis"
// (IPDPS 2022).
//
// Two hyperedges are s-incident when they share at least s vertices;
// the s-line graph Ls(H) has the hyperedges of H as nodes and an edge
// between every s-incident pair, weighted by the overlap size. Dually,
// applying the same computation to H* (the dual hypergraph) yields
// s-clique graphs, which generalize the clique expansion (the 1-clique
// graph).
//
// # Quick start
//
//	h := hyperline.FromEdgeSlices([][]uint32{{0,1,2},{1,2,3},{0,1,2,3,4},{4,5}}, 6)
//	qr, err := hyperline.Execute(ctx, hyperline.Query{Hypergraph: h, S: []int{2}})
//	cc := hyperline.SConnectedComponents(qr.Entries[0].Result)
//
// The package is a facade over the internal implementation packages:
// hg (hypergraph CSR substrate), core (the s-overlap algorithms),
// graph (the materialized line graph), algo (s-measures), spectral
// (normalized algebraic connectivity), toplex (Stage-2
// simplification), gen (synthetic dataset generators), hgio (text and
// binary I/O) and serve (the caching query layer behind Session and
// cmd/hyperlined).
package hyperline

import (
	"hyperline/internal/algo"
	"hyperline/internal/core"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
	"hyperline/internal/par"
	"hyperline/internal/spectral"
)

// Hypergraph is an immutable hypergraph in CSR form (both the
// edge→vertex and vertex→edge orientations are stored, so the dual view
// is free).
type Hypergraph = hg.Hypergraph

// Builder incrementally assembles a Hypergraph from incidence pairs.
type Builder = hg.Builder

// Stats summarizes a hypergraph (the columns of the paper's Table IV).
type Stats = hg.Stats

// Graph is a weighted undirected graph — the materialized s-line graph.
type Graph = graph.Graph

// Edge is one weighted s-line graph edge {U, V} with overlap weight W.
type Edge = graph.Edge

// Result is one materialized projection of an executed Query: the graph
// plus the mapping from graph nodes back to input hyperedge IDs and
// per-stage timings.
type Result = core.PipelineResult

// Components is a connected-component labeling.
type Components = algo.Components

// NewBuilder returns a builder with capacity for n incidence pairs.
func NewBuilder(n int) *Builder { return hg.NewBuilder(n) }

// FromEdgeSlices builds a hypergraph where edges[i] lists the member
// vertices of hyperedge i; numVertices may be 0 to infer the vertex
// space from the data.
func FromEdgeSlices(edges [][]uint32, numVertices int) *Hypergraph {
	return hg.FromEdgeSlices(edges, numVertices)
}

// Load reads a hypergraph from a file, selecting the format by
// extension: ".pairs" for "edge vertex" incidence pairs, ".bin" for the
// compact binary CSR dump, anything else (".hgr", ".adj", ".txt") for
// one hyperedge per line.
func Load(path string) (*Hypergraph, error) { return hgio.LoadFile(path) }

// Map loads a hypergraph like Load, but a ".bin" file is mmap'd and its
// arrays aliased in place: loading costs O(pages touched) rather than
// O(bytes), and the dataset may exceed RAM. Call Close on the result
// when done (or let the GC unmap it); text formats fall back to Load.
func Map(path string) (*Hypergraph, error) { return hgio.MapFile(path) }

// Save writes a hypergraph to a file, choosing the format by extension
// as in Load.
func Save(path string, h *Hypergraph) error { return hgio.SaveFile(path, h) }

// ComputeStats derives Table IV-style statistics.
func ComputeStats(name string, h *Hypergraph) Stats { return hg.ComputeStats(name, h) }

// Algorithm selects the s-overlap strategy.
type Algorithm = core.Algorithm

// The s-overlap strategies of the execution engine.
const (
	// AlgoAuto (the default) lets the cost-based planner choose the
	// strategy from the hypergraph's statistics and the query shape.
	// All planner-eligible strategies produce byte-identical
	// exact-weight output, so the choice is invisible to callers.
	AlgoAuto = core.AlgoAuto
	// AlgoSetIntersection is Algorithm 1, the prior state-of-the-art
	// set-intersection baseline (HiPC'21).
	AlgoSetIntersection = core.AlgoSetIntersection
	// AlgoHashmap is Algorithm 2, the paper's hashmap-based algorithm
	// that performs no set intersections.
	AlgoHashmap = core.AlgoHashmap
	// AlgoEnsemble is Algorithm 3: one counting pass serving every
	// requested s value.
	AlgoEnsemble = core.AlgoEnsemble
)

// Strategy selects the workload distribution (Table III "B"/"C").
type Strategy = par.Strategy

// Workload distribution strategies.
const (
	Blocked = par.Blocked
	Cyclic  = par.Cyclic
)

// RelabelOrder selects Stage-1 relabel-by-degree (Table III "A"/"D"/"N").
type RelabelOrder = hg.RelabelOrder

// Relabel-by-degree orders.
const (
	RelabelNone       = hg.RelabelNone
	RelabelAscending  = hg.RelabelAscending
	RelabelDescending = hg.RelabelDescending
)

// Options configures an s-line graph computation. The zero value runs
// the planner-chosen strategy (AlgoAuto) with blocked distribution, no
// relabeling, ID squeezing on, and GOMAXPROCS workers. The sessionless
// Execute takes every field; a Session's dataset queries answer the zero
// value's output class and take Workers only.
type Options struct {
	// Algorithm pins an s-overlap strategy (AlgoHashmap,
	// AlgoSetIntersection, AlgoEnsemble) or lets the cost-based planner
	// choose (AlgoAuto, the default).
	Algorithm Algorithm
	// Partition: Blocked (default) or Cyclic workload distribution.
	Partition Strategy
	// Relabel: hyperedge relabel-by-degree order applied during
	// preprocessing.
	Relabel RelabelOrder
	// Workers: parallelism (0 = GOMAXPROCS).
	Workers int
	// Grain: blocked-chunk size (0 = default).
	Grain int
	// ExactWeights makes Algorithm 1 compute exact overlap counts
	// instead of short-circuiting at s (Algorithm 2 is always exact).
	ExactWeights bool
	// Toplex enables Stage-2 simplification to maximal hyperedges.
	Toplex bool
	// NoSqueeze keeps the raw hyperedge ID space as node IDs instead
	// of compacting it (Stage 4).
	NoSqueeze bool
}

func (o Options) pipeline() core.PipelineConfig {
	return core.PipelineConfig{
		Core: core.Config{
			Algorithm:           o.Algorithm,
			Partition:           o.Partition,
			Relabel:             o.Relabel,
			Workers:             o.Workers,
			Grain:               o.Grain,
			DisableShortCircuit: o.ExactWeights,
		},
		Toplex:    o.Toplex,
		NoSqueeze: o.NoSqueeze,
	}
}

func (o Options) par() par.Options {
	return par.Options{Workers: o.Workers, Grain: o.Grain, Strategy: o.Partition}
}

// SConnectedComponents returns the s-connected components of an s-line
// graph result: the projection's own breadth-first labelling, built once
// per graph and shared by every component-wise measure, so Label must
// not be modified. Component labels index graph nodes; map through
// res.HyperedgeID for input IDs.
func SConnectedComponents(res *Result) *Components {
	return algo.ConnectedComponents(res.Graph)
}

// LabelPropagationCC runs the parallel label-propagation connected
// components (LPCC) algorithm benchmarked in the paper's Table V.
func LabelPropagationCC(g *Graph, workers int) *Components {
	return algo.LabelPropagationCC(g, par.Options{Workers: workers})
}

// SBetweenness computes the s-betweenness centrality of every node of
// an s-line graph (Brandes, parallel over sources). Use
// NormalizeBetweenness for [0,1]-scaled scores.
func SBetweenness(res *Result, workers int) []float64 {
	return algo.Betweenness(res.Graph, par.Options{Workers: workers})
}

// NormalizeBetweenness rescales raw betweenness scores by
// 1/((n-1)(n-2)).
func NormalizeBetweenness(scores []float64) []float64 { return algo.Normalize(scores) }

// SDistances returns the s-distances (shortest s-walk lengths) from
// the given node to all nodes; -1 marks unreachable nodes.
func SDistances(g *Graph, src uint32) []int32 { return algo.BFSDistances(g, src) }

// PageRank computes the PageRank vector of a graph (damping 0.85).
func PageRank(g *Graph, workers int) []float64 {
	return algo.PageRank(g, algo.PageRankOptions{Par: par.Options{Workers: workers}})
}

// NormalizedAlgebraicConnectivity returns the second-smallest
// eigenvalue of the normalized Laplacian of the largest connected
// component of g — the per-s connectivity measure of the paper's
// Fig. 6.
func NormalizedAlgebraicConnectivity(g *Graph) float64 {
	return spectral.NormalizedAlgebraicConnectivity(g, spectral.Options{})
}

// SCloseness computes the s-closeness centrality of every node of an
// s-line graph (Wasserman-Faust corrected for disconnected graphs).
func SCloseness(res *Result, workers int) []float64 {
	return algo.ClosenessCentrality(res.Graph, par.Options{Workers: workers})
}

// SHarmonic computes the harmonic centrality of every node of an
// s-line graph, normalized by n-1.
func SHarmonic(res *Result, workers int) []float64 {
	return algo.HarmonicCentrality(res.Graph, par.Options{Workers: workers})
}

// SEccentricities returns the s-eccentricity of every node; the
// maximum is the s-diameter.
func SEccentricities(res *Result, workers int) []int32 {
	return algo.Eccentricities(res.Graph, par.Options{Workers: workers})
}

// ClusteringCoefficients returns the local clustering coefficient of
// every node of g.
func ClusteringCoefficients(g *Graph, workers int) []float64 {
	return algo.ClusteringCoefficients(g, par.Options{Workers: workers})
}

// GlobalClusteringCoefficient returns the transitivity of g.
func GlobalClusteringCoefficient(g *Graph, workers int) float64 {
	return algo.GlobalClusteringCoefficient(g, par.Options{Workers: workers})
}

// ParseSValues parses an s-value specification: a single value ("8"),
// a comma-separated list ("1,2,5"), an inclusive range ("2:6"), or any
// mix ("1,4:6,12") — the format s-sweeps take on the command line and
// over HTTP.
func ParseSValues(spec string) ([]int, error) { return core.ParseSValues(spec) }
