// Package measure is Stage 5 of the framework as a pluggable engine:
// every s-measure the paper's application studies report (component
// counts, s-distances, diameters, centralities, clustering, algebraic
// connectivity) is a Measure — a named, parameterized, deterministic
// computation over a materialized projection — registered in a global
// registry, mirroring the Strategy registry that Stage 3 uses.
//
// The registry is what the serving layer builds on: a measure's name
// plus its canonical parameter string extend the pipeline cache key, so
// a repeated measure request on a warmed dataset is a pure cache hit
// (no recomputation), and an s-sweep of a measure reuses one batched
// Stage 1-4 pass plus one Compute per uncached s.
//
// Determinism is a hard contract, not a convention: Compute must return
// bit-identical results for a given projection regardless of
// par.Options (worker count, grain, workload distribution). Every
// built-in satisfies it — per-node outputs are computed entirely within
// one loop iteration, and the two iterative measures (PageRank,
// betweenness) use worker-independent reduction orders — and the
// property tests in this package enforce it across workers and across
// pipeline strategies.
//
// An s-sweep is parallel across its s values: par.EachS, which
// ComputeSweep (sweep.go) wraps, is the one per-s loop, dividing the
// request's workers over the sweep by projection size and handing each
// Compute its share as par.Options.
// The share an s receives depends on the rest of the sweep, so the
// determinism contract is what keeps a value — and the cache key that
// excludes execution options — independent of which sweep computed it.
package measure

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hyperline/internal/core"
	"hyperline/internal/par"
)

// Cost is a coarse cost hint for one measure evaluation, letting
// callers (the serving layer, capacity planners) order or gate work
// without knowing the implementation.
type Cost uint8

const (
	// CostLinear measures run in roughly O(n + m) — one pass over the
	// projection (components, clustering, single-source distances).
	CostLinear Cost = iota
	// CostIterative measures run a convergence loop of O(n + m)
	// passes (PageRank, spectral connectivity).
	CostIterative
	// CostAllPairs measures run one traversal per node — O(n·(n+m))
	// (eccentricity, diameter, closeness, harmonic, betweenness).
	CostAllPairs
)

// String names the cost class.
func (c Cost) String() string {
	switch c {
	case CostLinear:
		return "linear"
	case CostIterative:
		return "iterative"
	case CostAllPairs:
		return "all-pairs"
	default:
		return "?"
	}
}

// ParamSpec describes one parameter a measure accepts.
type ParamSpec struct {
	// Name is the parameter's key (also its HTTP query parameter).
	Name string `json:"name"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
	// Required marks parameters without a usable default.
	Required bool `json:"required,omitempty"`
	// Default is the value assumed when the parameter is omitted
	// (empty for required parameters).
	Default string `json:"default,omitempty"`
	// Canon validates and normalizes a supplied value ("0.850" →
	// "0.85") so equivalent spellings share one cache key and bad
	// values are rejected before any pipeline work runs. Nil means
	// the value is taken verbatim.
	Canon func(string) (string, error) `json:"-"`
}

// Params is a validated, canonicalized parameter assignment: every key
// appears in the measure's schema and defaults are filled in. Build one
// with Canonicalize.
type Params map[string]string

// CanonicalString renders p as "k=v,k=v" with keys sorted — the
// parameter component of a measure cache key. Identical assignments
// (including an omitted parameter vs its explicit default) render
// identically.
func (p Params) CanonicalString() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(p[k])
	}
	return b.String()
}

// Value is one measure result. Exactly which fields are set depends on
// the measure's shape: Scalar for single-number measures (diameter,
// component count, connectivity), Scores or Ints for per-node vectors
// (parallel to the projection's HyperedgeIDs mapping), Groups for node
// groupings expressed in input hyperedge IDs (component membership).
// Values are immutable once returned: the serving layer shares them by
// reference across cached requests.
type Value struct {
	// Scalar is the single-number result, when the measure has one.
	Scalar *float64 `json:"scalar,omitempty"`
	// Scores is a per-node float vector, indexed by projection node.
	Scores []float64 `json:"scores,omitempty"`
	// Ints is a per-node integer vector, indexed by projection node
	// (distances and eccentricities; -1 marks unreachable).
	Ints []int32 `json:"ints,omitempty"`
	// Groups lists node groups in input hyperedge IDs, each group
	// ascending, groups ordered by their smallest member.
	Groups [][]uint32 `json:"groups,omitempty"`
}

// scalar wraps a float64 for Value.Scalar.
func scalar(v float64) *float64 { return &v }

// Measure is one Stage-5 s-measure: a named, parameterized computation
// over a materialized projection.
//
// Compute must be deterministic: bit-identical output for a given
// (projection, params) pair regardless of opt — worker count, grain,
// and workload distribution are execution knobs only, exactly like the
// Stage-3 strategy contract. This is what makes measure results
// cacheable under a key that excludes execution options.
type Measure interface {
	// Name is the measure's stable registry identifier.
	Name() string
	// Doc is a one-line description for listings.
	Doc() string
	// Params is the accepted parameter schema.
	Params() []ParamSpec
	// Cost hints the relative evaluation cost.
	Cost() Cost
	// Compute evaluates the measure on a projection with canonical
	// params (as produced by Canonicalize). Implementations must honor
	// ctx at least on entry (returning ctx.Err() instead of starting
	// work on a dead context); a nil ctx means context.Background().
	Compute(ctx context.Context, res *core.PipelineResult, p Params, opt par.Options) (*Value, error)
}

// Canonicalize validates raw parameters against m's schema and returns
// the canonical assignment: unknown keys are rejected, defaults are
// filled in, and required parameters must be present and non-empty.
func Canonicalize(m Measure, raw map[string]string) (Params, error) {
	specs := m.Params()
	byName := make(map[string]ParamSpec, len(specs))
	for _, s := range specs {
		byName[s.Name] = s
	}
	for k := range raw {
		if _, ok := byName[k]; !ok {
			return nil, fmt.Errorf("measure: %s does not accept parameter %q (accepts: %s)",
				m.Name(), k, paramNames(specs))
		}
	}
	p := make(Params, len(specs))
	for _, s := range specs {
		v, ok := raw[s.Name]
		if !ok || v == "" {
			if s.Required {
				return nil, fmt.Errorf("measure: %s requires parameter %q (%s)", m.Name(), s.Name, s.Doc)
			}
			v = s.Default
		}
		if v != "" && s.Canon != nil {
			cv, err := s.Canon(v)
			if err != nil {
				return nil, fmt.Errorf("measure: %s parameter %q: %w", m.Name(), s.Name, err)
			}
			v = cv
		}
		if v != "" {
			p[s.Name] = v
		}
	}
	return p, nil
}

func paramNames(specs []ParamSpec) string {
	if len(specs) == 0 {
		return "none"
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}
