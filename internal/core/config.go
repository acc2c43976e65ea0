// Package core implements the paper's primary contribution: parallel
// algorithms for computing high-order (s ≥ 1) line graphs of non-uniform
// hypergraphs, and the five-stage framework around them.
//
// The s-overlap stage is a pluggable execution engine: every algorithm
// implements the Strategy interface (sorted, deduped, deterministic
// edge lists per s), and a cost-based planner (PlanQuery) picks the
// strategy for AlgoAuto queries. There are three strategies:
//
//   - Algorithm 1 (SetIntersection): the prior state-of-the-art
//     heuristic algorithm of Liu et al. (HiPC'21), which intersects the
//     sorted neighbor lists of every candidate hyperedge pair, with
//     degree-based pruning, candidate de-duplication, short-circuiting,
//     and upper-triangle traversal.
//   - Algorithm 2 (Hashmap): the paper's new algorithm, which never
//     performs a set intersection; it accumulates overlap counts for the
//     2-hop neighbors of each hyperedge in a per-iteration counter and
//     filters by s on the fly.
//   - Algorithm 3 (Ensemble): a variant of Algorithm 2 that stores all
//     overlap counts once and then derives the s-line graph for every
//     requested s value.
//
// The §VI-G SpGEMM baseline lives in internal/spgemm and is called only
// by the experiments harness.
//
// All algorithms parallelize the outer loop over hyperedges using the
// blocked or cyclic workload distribution of internal/par and support
// the relabel-by-degree orderings of internal/hg, giving the twelve
// configurations of the paper's Table III (1BA ... 2CD) plus the
// extended "3" (ensemble) and "A" (auto) notations.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

// Algorithm selects the s-overlap strategy. The zero value, AlgoAuto,
// lets the cost-based planner (PlanQuery) resolve the strategy from the
// hypergraph's statistics and the query shape.
type Algorithm uint8

const (
	// AlgoAuto (the default) defers the choice to the planner, which
	// picks a strategy from the hypergraph statistics, the requested s
	// values, and the query shape. Every strategy the planner may pick
	// produces the same exact-weight output, so the choice is invisible
	// to callers (and to the result cache).
	AlgoAuto Algorithm = 0
	// AlgoSetIntersection is Algorithm 1 of the paper (the HiPC'21
	// heuristic baseline).
	AlgoSetIntersection Algorithm = 1
	// AlgoHashmap is Algorithm 2 of the paper (the new hashmap-based
	// algorithm).
	AlgoHashmap Algorithm = 2
	// AlgoEnsemble is Algorithm 3 of the paper: Algorithm 2's counting
	// pass decoupled from edge emission, serving every requested s from
	// one materialized counter set.
	AlgoEnsemble Algorithm = 3
)

// String returns the character used in the (extended) Table III
// notation: the paper's numerals for Algorithms 1-3, "A" for the
// planner.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "A"
	case AlgoSetIntersection:
		return "1"
	case AlgoHashmap:
		return "2"
	case AlgoEnsemble:
		return "3"
	default:
		return "?"
	}
}

// Config selects an algorithm and its execution strategy. The zero
// value means planner-chosen strategy (AlgoAuto), blocked distribution,
// no relabeling, default grain, GOMAXPROCS workers — a sensible default.
type Config struct {
	// Algorithm pins an s-overlap strategy, or lets the planner choose
	// (AlgoAuto, the default).
	Algorithm Algorithm
	// Partition is the workload distribution strategy (Blocked or
	// Cyclic; Table III "B"/"C").
	Partition par.Strategy
	// Relabel is the Stage-1 relabel-by-degree order (Table III
	// "A"/"D"/"N"). It is applied by the Pipeline; the raw algorithm
	// entry points honor the hyperedge IDs they are given.
	Relabel hg.RelabelOrder
	// Workers is the worker count (0 = GOMAXPROCS).
	Workers int
	// Grain is the blocked-chunk size (0 = par.DefaultGrain).
	Grain int
	// DisablePruning turns off degree-based pruning (hyperedges of
	// size < s can never be s-incident and are skipped by default).
	DisablePruning bool
	// DisableShortCircuit makes Algorithm 1 compute exact overlap
	// counts instead of aborting each set intersection as soon as the
	// ≥ s outcome is decided. Exact counts populate Edge.W.
	DisableShortCircuit bool
}

func (c Config) parOptions() par.Options {
	return par.Options{Workers: c.Workers, Grain: c.Grain, Strategy: c.Partition}
}

// ParseNotation parses a Table III shorthand such as "1CN" or "2BA",
// extended with "3" (ensemble) and "A" (planner/auto) in the algorithm
// position, and "*" (planner-resolved) in the relabel position (e.g.
// "2C*" or "AB*"). The bare word "auto" is accepted as a shorthand with
// default partition and relabeling.
func ParseNotation(s string) (Config, error) {
	var c Config
	if s == "auto" {
		return Config{Algorithm: AlgoAuto}, nil
	}
	if len(s) != 3 {
		return c, fmt.Errorf("core: notation %q must have 3 characters (or be \"auto\")", s)
	}
	switch s[0] {
	case '1':
		c.Algorithm = AlgoSetIntersection
	case '2':
		c.Algorithm = AlgoHashmap
	case '3':
		c.Algorithm = AlgoEnsemble
	case 'A':
		c.Algorithm = AlgoAuto
	default:
		return c, fmt.Errorf("core: unknown algorithm %q", s[0])
	}
	switch s[1] {
	case 'B':
		c.Partition = par.Blocked
	case 'C':
		c.Partition = par.Cyclic
	default:
		return c, fmt.Errorf("core: unknown partition %q", s[1])
	}
	switch s[2] {
	case 'A':
		c.Relabel = hg.RelabelAscending
	case 'D':
		c.Relabel = hg.RelabelDescending
	case 'N':
		c.Relabel = hg.RelabelNone
	case '*':
		// Planner-resolved order: ResolveConfig replaces it with a
		// concrete order from the dataset's statistics before Stage 1.
		c.Relabel = hg.RelabelAuto
	default:
		return c, fmt.Errorf("core: unknown relabel order %q", s[2])
	}
	return c, nil
}

// AllNotations lists the twelve configurations of Table III in the
// order of the paper's Figure 7 x-axis.
func AllNotations() []string {
	return []string{
		"1BD", "1CD", "1BA", "1CA", "1BN", "1CN",
		"2BN", "2CN", "2BA", "2CA", "2BD", "2CD",
	}
}

// MaxSValues caps the total s values one batch specification may
// expand to, bounding the work a single (possibly unauthenticated)
// batch request can demand.
const MaxSValues = 1024

// ValidateSValues checks an explicit batch s-value list against the
// rules ParseSValues enforces for specifications: non-empty, every
// value ≥ 1, at most MaxSValues values. Serving-layer entry points
// that accept raw lists share this with the string form so the two
// cannot drift.
func ValidateSValues(sValues []int) error {
	if len(sValues) == 0 {
		return fmt.Errorf("core: at least one s value is required")
	}
	if len(sValues) > MaxSValues {
		return fmt.Errorf("core: more than %d s values in one request", MaxSValues)
	}
	for _, s := range sValues {
		if s < 1 {
			return fmt.Errorf("core: s must be >= 1, got %d", s)
		}
	}
	return nil
}

// ParseSValues parses an s-value specification: a single value ("8"),
// a comma-separated list ("1,2,5"), an inclusive range ("2:6"), or any
// comma-separated mix of the two ("1,4:6,12"). Values must be ≥ 1 and
// the whole specification may expand to at most 1024 values.
func ParseSValues(spec string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("core: empty s value in %q", spec)
		}
		lo, hi, isRange := strings.Cut(field, ":")
		first, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil || first < 1 {
			return nil, fmt.Errorf("core: bad s value %q (want integer >= 1)", field)
		}
		last := first
		if isRange {
			if last, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil || last < 1 {
				return nil, fmt.Errorf("core: bad s range %q (want lo:hi with integers >= 1)", field)
			}
			if last < first {
				return nil, fmt.Errorf("core: empty s range %q (hi < lo)", field)
			}
		}
		if len(out)+(last-first+1) > MaxSValues {
			return nil, fmt.Errorf("core: s specification %q expands to more than %d values", spec, MaxSValues)
		}
		for s := first; s <= last; s++ {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no s values in %q", spec)
	}
	return out, nil
}

// DistinctS returns the distinct s values of a query, clamped to ≥ 1
// and sorted ascending — the canonical batch shape the planner and the
// per-s strategies operate on.
func DistinctS(sValues []int) []int {
	seen := make(map[int]bool, len(sValues))
	out := make([]int, 0, len(sValues))
	for _, s := range sValues {
		if s < 1 {
			s = 1
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}
