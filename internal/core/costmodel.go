package core

import (
	"sort"
	"sync"
	"time"

	"hyperline/internal/hg"
)

// CalibrationMin is how many observations a (strategy, knobs) cell
// needs before admission control prices queries with its EWMA instead
// of the wedge-pair heuristic. Below it the cell is warming up: one or
// two measurements are too noisy to price with.
const CalibrationMin = 3

// costAlpha is the EWMA smoothing factor. 0.3 weights the last handful
// of observations heavily enough to track dataset replacement of
// similarly-shaped versions while damping single-query jitter.
const costAlpha = 0.3

// CostKey identifies one cell of the calibration table: the Stage-3
// strategy that ran together with the output-relevant knobs and the
// batch shape it ran under. The dataset (and its version) is implicit —
// the serving layer keeps one CostModel per registered dataset version
// and orientation, so a replaced dataset starts calibrating from
// scratch.
type CostKey struct {
	// Algo is the strategy that executed (never AlgoAuto: the planner
	// records what it resolved to).
	Algo Algorithm
	// Relabel is the resolved Stage-1 order the pass ran under.
	Relabel hg.RelabelOrder
	// Toplex reports whether Stage-2 simplification ran.
	Toplex bool
	// Multi distinguishes batched (multi-s) passes from single-s ones:
	// their per-s costs are not comparable (the ensemble amortizes one
	// counting pass across the batch).
	Multi bool
}

// CostObservation is one exported cell of the calibration table.
type CostObservation struct {
	Key CostKey
	// PerS is the smoothed Stage-3 cost per distinct s value.
	PerS time.Duration
	// N counts the observations folded into the EWMA.
	N int64
	// Calibrated reports N >= CalibrationMin: admission control prices
	// with this cell.
	Calibrated bool
}

// CostModel is an online per-dataset cost table: an EWMA of observed
// Stage-3 (s-overlap) time per distinct s, keyed by the executed
// strategy and knobs. RunBatch feeds it after every successful pass; the
// serving layer reads it — once a cell has CalibrationMin observations
// — to price admission in measured milliseconds and to allow larger
// patches on ingest, and reports it on /v1/datasets/{name}/costs. It
// never influences which strategy or knobs run: planning is a pure
// function of hg.Stats (PlanQuery, ResolveConfig). All methods are safe
// for concurrent use.
type CostModel struct {
	mu    sync.RWMutex
	table map[CostKey]costCell
}

type costCell struct {
	ewma float64 // nanoseconds per distinct s
	n    int64
}

// NewCostModel returns an empty calibration table.
func NewCostModel() *CostModel {
	return &CostModel{table: make(map[CostKey]costCell)}
}

// Observe folds one measured Stage-3 pass into the table: perS is the
// s-overlap wall time divided by the number of distinct s values it
// served.
func (c *CostModel) Observe(k CostKey, perS time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	cell, ok := c.table[k]
	if !ok {
		cell = costCell{ewma: float64(perS)}
	} else {
		cell.ewma += costAlpha * (float64(perS) - cell.ewma)
	}
	cell.n++
	c.table[k] = cell
	c.mu.Unlock()
}

// Estimate returns the smoothed per-s cost for a cell and whether the
// cell is calibrated (has at least CalibrationMin observations). An
// unobserved cell returns (0, false).
func (c *CostModel) Estimate(k CostKey) (time.Duration, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.RLock()
	cell, ok := c.table[k]
	c.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return time.Duration(cell.ewma), cell.n >= CalibrationMin
}

// Snapshot exports the table, sorted by key for deterministic output.
func (c *CostModel) Snapshot() []CostObservation {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	out := make([]CostObservation, 0, len(c.table))
	for k, cell := range c.table {
		out = append(out, CostObservation{
			Key:        k,
			PerS:       time.Duration(cell.ewma),
			N:          cell.n,
			Calibrated: cell.n >= CalibrationMin,
		})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Algo != b.Algo {
			return a.Algo < b.Algo
		}
		if a.Relabel != b.Relabel {
			return a.Relabel < b.Relabel
		}
		if a.Toplex != b.Toplex {
			return !a.Toplex
		}
		if a.Multi != b.Multi {
			return !a.Multi
		}
		return false
	})
	return out
}
