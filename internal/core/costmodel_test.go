package core

import (
	"sync"
	"testing"
	"time"

	"hyperline/internal/hg"
)

func TestCostModelEWMA(t *testing.T) {
	c := NewCostModel()
	k := CostKey{Algo: AlgoHashmap}

	if _, ok := c.Estimate(k); ok {
		t.Fatal("empty model reports a calibrated cell")
	}

	c.Observe(k, 100*time.Millisecond)
	d, calibrated := c.Estimate(k)
	if d != 100*time.Millisecond {
		t.Fatalf("first observation: estimate = %v, want exactly 100ms", d)
	}
	if calibrated {
		t.Fatal("one observation must not calibrate the cell")
	}

	// Observations pull the EWMA toward the new value without jumping
	// to it.
	c.Observe(k, 200*time.Millisecond)
	d, _ = c.Estimate(k)
	if d <= 100*time.Millisecond || d >= 200*time.Millisecond {
		t.Fatalf("EWMA after 100ms,200ms = %v, want strictly between", d)
	}
}

func TestCostModelCalibrationThreshold(t *testing.T) {
	c := NewCostModel()
	k := CostKey{Algo: AlgoEnsemble, Multi: true}
	for i := 1; i <= CalibrationMin; i++ {
		c.Observe(k, time.Millisecond)
		_, calibrated := c.Estimate(k)
		if want := i >= CalibrationMin; calibrated != want {
			t.Fatalf("after %d observations: calibrated = %v, want %v", i, calibrated, want)
		}
	}
}

func TestCostModelKeysAreIndependent(t *testing.T) {
	c := NewCostModel()
	a := CostKey{Algo: AlgoHashmap, Relabel: hg.RelabelAscending}
	b := CostKey{Algo: AlgoHashmap, Relabel: hg.RelabelNone}
	c.Observe(a, time.Second)
	if _, ok := c.Estimate(b); ok {
		t.Fatal("observation leaked across keys")
	}
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Key != a || snap[0].N != 1 {
		t.Fatalf("snapshot = %+v, want exactly the observed cell", snap)
	}
}

func TestCostModelSnapshotSorted(t *testing.T) {
	c := NewCostModel()
	keys := []CostKey{
		{Algo: AlgoEnsemble, Multi: true},
		{Algo: AlgoHashmap, Relabel: hg.RelabelDescending},
		{Algo: AlgoHashmap, Relabel: hg.RelabelAscending, Toplex: true},
		{Algo: AlgoSetIntersection},
		{Algo: AlgoHashmap, Relabel: hg.RelabelAscending},
	}
	for _, k := range keys {
		c.Observe(k, time.Millisecond)
	}
	snap := c.Snapshot()
	if len(snap) != len(keys) {
		t.Fatalf("snapshot has %d cells, want %d", len(snap), len(keys))
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1].Key, snap[i].Key
		if a.Algo > b.Algo {
			t.Fatalf("snapshot not sorted by algo: %+v before %+v", a, b)
		}
		if a.Algo == b.Algo && a.Relabel > b.Relabel {
			t.Fatalf("snapshot not sorted by relabel: %+v before %+v", a, b)
		}
	}
}

func TestCostModelNilSafe(t *testing.T) {
	var c *CostModel
	c.Observe(CostKey{}, time.Second) // must not panic
	if _, ok := c.Estimate(CostKey{}); ok {
		t.Fatal("nil model reports a calibrated cell")
	}
	if snap := c.Snapshot(); snap != nil {
		t.Fatalf("nil model snapshot = %v, want nil", snap)
	}
}

// TestCostModelConcurrent hammers one model from concurrent observers,
// estimators, and snapshotters — the CI -race run drives this test to
// prove the calibration store is data-race free under serving load.
func TestCostModelConcurrent(t *testing.T) {
	c := NewCostModel()
	keys := []CostKey{
		{Algo: AlgoHashmap},
		{Algo: AlgoEnsemble, Multi: true},
		{Algo: AlgoSetIntersection, Toplex: true},
	}
	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := keys[(g+i)%len(keys)]
				switch i % 3 {
				case 0:
					c.Observe(k, time.Duration(i)*time.Microsecond)
				case 1:
					c.Estimate(k)
				default:
					c.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range keys {
		if _, calibrated := c.Estimate(k); !calibrated {
			t.Fatalf("cell %+v not calibrated after concurrent load", k)
		}
	}
}
