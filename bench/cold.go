package main

import (
	"context"
	"fmt"
	"time"

	"hyperline"
	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// coldWorkload runs hyperline.Execute on a hypergraph with no session and no
// cache: every operation pays Stages 1–4 in full.
type coldWorkload struct {
	h        *hg.Hypergraph
	s        []int
	strategy string // the plan the workload exists to exercise
	tr       *tracer
	ref      map[int]projRef

	// From the most recent operation, for layers.
	stats  core.Stats
	planOK bool
}

func newCold(cfg gen.CommunityConfig, s []int, strategy string) func(int64, *tracer) (workload, error) {
	return func(seed int64, tr *tracer) (workload, error) {
		return &coldWorkload{h: makeDataset(cfg, seed), s: s, strategy: strategy, tr: tr}, nil
	}
}

// reference runs the same query on one worker; by the pipeline's contract
// every worker count produces these bytes.
func (c *coldWorkload) reference() error {
	res, err := hyperline.Execute(context.Background(), hyperline.Query{
		Hypergraph: c.h, S: c.s, Options: hyperline.Options{Workers: 1},
	})
	if err != nil {
		return err
	}
	c.ref = make(map[int]projRef, len(res.Entries))
	for _, e := range res.Entries {
		c.ref[e.S] = refOf(e.Result)
	}
	return nil
}

func (c *coldWorkload) op(int) outcome {
	o := outcome{start: time.Now()}
	res, err := hyperline.Execute(context.Background(), hyperline.Query{Hypergraph: c.h, S: c.s})
	o.done = time.Now()
	if err != nil || len(res.Entries) != len(c.ref) {
		return o
	}
	o.ok = true
	var stage4 time.Duration
	for _, e := range res.Entries {
		if e.Err != nil || refOf(e.Result) != c.ref[e.S] {
			o.ok = false
		}
		stage4 += e.Result.Timings.Squeeze
	}
	first := res.Entries[0].Result
	c.stats = first.Stats
	c.planOK = res.Plan.Strategy == c.strategy
	if c.tr.recording() {
		// The pipeline reports stage durations, not instants: lay them out
		// back to back from the call. What the call took beyond them is the
		// client span's self time.
		t := o.start
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"hg.stage1", first.Timings.Preprocess},
			{"core.stage3", first.Timings.SOverlap},
			{"graph.stage4", stage4},
		} {
			c.tr.add(st.name, t, t.Add(st.d))
			t = t.Add(st.d)
		}
	}
	return o
}

func (c *coldWorkload) finish() error {
	if !c.planOK {
		return fmt.Errorf("bench: planner did not pick %q", c.strategy)
	}
	return nil
}

func (c *coldWorkload) layers(m map[string]float64) {
	m["core.wedges"] = float64(c.stats.Wedges)
	m["core.edges_out"] = float64(c.stats.Edges)
	var top, total int64
	for _, w := range c.stats.WedgesPerWorker {
		total += w
		top = max(top, w)
	}
	// Rates over the stage medians the spans gave.
	m["core.mwedges_per_s"] = ratio(float64(c.stats.Wedges)/1e6, m["core.stage3_ms"]/1e3)
	m["graph.medges_per_s"] = ratio(float64(c.stats.Edges)/1e6, m["graph.stage4_ms"]/1e3)
	m["core.worker_imbalance"] = ratio(float64(top)*float64(len(c.stats.WedgesPerWorker)), float64(total))
	if c.planOK {
		m["core.plan_strategy_ok"] = 1
	}
}

func (c *coldWorkload) dataset() *hg.Hypergraph { return c.h }
func (c *coldWorkload) close()                  {}
