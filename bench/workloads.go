package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/serve"
)

// streamWorkload sends a seeded stream of reads to a serving stack and, when
// deltaEvery > 0, a delta through /v2/ingest in place of every
// deltaEvery-th operation (deltaEvery 1: nothing but deltas).
type streamWorkload struct {
	env        *servingEnv
	reads      []querySpec
	deltaEvery int

	deltas *deltaStream
}

func newStream(cfg gen.CommunityConfig, routed bool, componentsFrac float64, deltaEvery int) func(int64, *tracer) (workload, error) {
	return func(seed int64, tr *tracer) (workload, error) {
		h := makeDataset(cfg, seed)
		env, err := newServingEnv(h, serve.Config{DeltaPolicy: serve.DeltaPolicyPatch}, routed, tr)
		if err != nil {
			return nil, err
		}
		return &streamWorkload{
			env:        env,
			reads:      readStream(seed, streamLen, componentsFrac),
			deltaEvery: deltaEvery,
			deltas:     newDeltaStream(seed, h),
		}, nil
	}
}

func (w *streamWorkload) reference() error { return w.env.reference(1, "components") }

func (w *streamWorkload) op(i int) outcome {
	if w.deltaEvery > 0 && i%w.deltaEvery == w.deltaEvery-1 {
		return w.ingest()
	}
	return w.env.query(w.env.url, w.reads[i%len(w.reads)])
}

// ingest sends the next delta of the stream. In a traced operation it then
// repeats the write path's public steps on the same inputs — delta.Apply,
// delta.NewPatcher, Patcher.Patch for as many projections as the service
// reports it patched — and records their durations as children of the
// ingest span; what remains is the service's own cache walk and bookkeeping.
func (w *streamWorkload) ingest() outcome {
	e := w.env
	d := w.deltas.next()
	var base *hg.Hypergraph
	if e.tr.recording() {
		base, _ = e.replicas[0].svc.Hypergraph(datasetName)
	}
	body, _ := json.Marshal(map[string]any{"dataset": datasetName, "inserts": d.Inserts, "deletes": d.Deletes})
	status, start, done, err := e.post(e.url+"/v2/ingest", body)
	o := outcome{class: classIngest, start: start, done: done}
	var res struct {
		serve.IngestResult
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(e.buf.Bytes(), &res) != nil {
		return o
	}
	o.ok = res.Version == res.OldVersion+1 && res.Inserts == len(d.Inserts) && res.Deletes == len(d.Deletes)
	if base != nil {
		w.shadow(base, d, res.IngestResult, res.ElapsedMS)
	}
	return o
}

func (w *streamWorkload) shadow(base *hg.Hypergraph, d *delta.Delta, res serve.IngestResult, elapsedMS float64) {
	tr := w.env.tr
	hs, ok := tr.lastStart("serve.handler")
	if !ok {
		return
	}
	ingestEnd := hs.Add(time.Duration(elapsedMS * float64(time.Millisecond)))
	tr.add("serve.ingest", hs, ingestEnd)

	t0 := time.Now()
	newH, err := delta.Apply(base, d)
	if err != nil {
		return
	}
	t1 := time.Now()
	p := delta.NewPatcher(base, newH, d)
	patcher := time.Since(t1)
	var patch time.Duration
	if res.Patched > 0 {
		// The projections the service patched are the ones at the
		// highest affected s (Plan drops the larger, lower-s ones first).
		top := min(res.AffectedSLine, sMax)
		var sVals []int
		for s := max(1, top-res.Patched+1); s <= top; s++ {
			sVals = append(sVals, s)
		}
		olds, err := core.RunBatch(context.Background(), base, sVals, core.PipelineConfig{})
		if err != nil {
			return
		}
		for _, s := range sVals {
			tp := time.Now()
			if _, err := p.Patch(olds[s], delta.KeyAttrs{S: s, Exact: true, Squeeze: true}); err != nil {
				return
			}
			patch += time.Since(tp)
		}
	}
	// Laid out back to back from the ingest span's start, clipped to it.
	at := hs
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"delta.apply", t1.Sub(t0)}, {"delta.patcher", patcher}, {"delta.patch", patch}} {
		end := at.Add(st.d)
		if end.After(ingestEnd) {
			end = ingestEnd
		}
		tr.add(st.name, at, end)
		at = end
	}
}

// finish checks patch ≡ recompute: the served sweep must equal core.RunBatch
// on a hypergraph rebuilt from the base and the delta chain.
func (w *streamWorkload) finish() error {
	return w.env.finalCheck(w.deltas.rebuilt())
}

func (w *streamWorkload) layers(m map[string]float64) { w.env.layers(m) }
func (w *streamWorkload) dataset() *hg.Hypergraph     { return w.env.h }
func (w *streamWorkload) close()                      { w.env.close() }

// deltaStream draws the deltas of a run in order: two inserted hyperedges of
// 3–4 existing vertices each and, from the second delta on, the deletion of
// the oldest hyperedge the stream inserted that is still live. IDs follow
// from delta.Apply's contract: inserts take the next IDs in batch order.
type deltaStream struct {
	r        *rand.Rand
	base     *hg.Hypergraph
	nextID   uint32
	live     []uint32            // stream-inserted, not yet deleted, oldest first
	inserted map[uint32][]uint32 // every stream-inserted hyperedge still live
}

func newDeltaStream(seed int64, base *hg.Hypergraph) *deltaStream {
	return &deltaStream{
		r:        rand.New(rand.NewSource(seed ^ 0x5eed)),
		base:     base,
		nextID:   uint32(base.NumEdges()),
		inserted: make(map[uint32][]uint32),
	}
}

func (ds *deltaStream) next() *delta.Delta {
	d := &delta.Delta{}
	if len(ds.live) > 0 {
		d.Deletes = []uint32{ds.live[0]}
		delete(ds.inserted, ds.live[0])
		ds.live = ds.live[1:]
	}
	for k := 0; k < 2; k++ {
		size := 3 + ds.r.Intn(2)
		picked := make(map[uint32]bool, size)
		vs := make([]uint32, 0, size)
		for len(vs) < size {
			v := uint32(ds.r.Intn(ds.base.NumVertices()))
			if !picked[v] {
				picked[v] = true
				vs = append(vs, v)
			}
		}
		d.Inserts = append(d.Inserts, vs)
		ds.inserted[ds.nextID] = vs
		ds.live = append(ds.live, ds.nextID)
		ds.nextID++
	}
	return d
}

// rebuilt constructs the hypergraph the dataset must equal after every
// delta drawn so far: the base rows, empty rows for deleted inserts, and the
// live inserts at their IDs — built from edge lists, not through delta.Apply.
func (ds *deltaStream) rebuilt() *hg.Hypergraph {
	edges := ds.base.EdgeSlices()
	for id := uint32(len(edges)); id < ds.nextID; id++ {
		edges = append(edges, ds.inserted[id])
	}
	return hg.FromEdgeSlices(edges, ds.base.NumVertices())
}

// bundleMeasures are evaluated, in this order, by one measure-bundle
// operation over s = bundleLo..sMax.
var bundleMeasures = []string{"components", "pagerank", "connectivity"}

const bundleLo = 4

// bundleWorkload runs three measure sweeps per operation on cached
// projections. The measure cache holds one entry, so every evaluation runs.
type bundleWorkload struct {
	env     *servingEnv
	queries []querySpec
	perOp   int64 // measure evaluations one operation must cause
}

func newBundle(cfg gen.CommunityConfig) func(int64, *tracer) (workload, error) {
	return func(seed int64, tr *tracer) (workload, error) {
		env, err := newServingEnv(makeDataset(cfg, seed), serve.Config{MeasureCacheEntries: 1}, false, tr)
		if err != nil {
			return nil, err
		}
		w := &bundleWorkload{env: env, perOp: int64(len(bundleMeasures) * (sMax - bundleLo + 1))}
		for _, name := range bundleMeasures {
			w.queries = append(w.queries, newQuery(bundleLo, sMax, name, false))
		}
		return w, nil
	}
}

func (w *bundleWorkload) reference() error { return w.env.reference(bundleLo, bundleMeasures...) }

// op sends the three sweeps in turn. It also asserts that the measure cache
// stayed defeated: the service's evaluation count must rise by exactly
// perOp, or the workload is no longer measuring Stage 5.
func (w *bundleWorkload) op(int) outcome {
	svc := w.env.replicas[0].svc
	before := svc.MeasureCacheStats().Computes
	var o outcome
	for i, q := range w.queries {
		qo := w.env.query(w.env.url, q)
		if i == 0 {
			o = qo
		}
		o.done = qo.done
		o.ok = o.ok && qo.ok
	}
	if svc.MeasureCacheStats().Computes-before != w.perOp {
		o.ok = false
	}
	return o
}

func (w *bundleWorkload) finish() error { return w.env.finalCheck(w.env.h) }

func (w *bundleWorkload) layers(m map[string]float64) {
	computes, responses := w.env.layers(m)
	m["measure.computes_per_op"] = ratio(computes, responses/float64(len(w.queries)))
}

func (w *bundleWorkload) dataset() *hg.Hypergraph { return w.env.h }
func (w *bundleWorkload) close()                  { w.env.close() }

// directCPU measures what the router tier costs per query: CPU per
// operation for the same n reads sent through the router and sent straight
// to one replica (after a pass that warms that replica for every s).
func (w *streamWorkload) directCPU(n int) (routedMS, directMS float64, err error) {
	e := w.env
	pass := func(url string) (float64, error) {
		cpu0 := cpuTime()
		for i := 0; i < n; i++ {
			if !e.query(url, w.reads[i]).ok {
				return 0, fmt.Errorf("bench: query %d failed during the router-cost passes", i)
			}
		}
		return ms(cpuTime()-cpu0) / float64(n), nil
	}
	direct := e.replicas[0].ts.URL
	if _, err := pass(direct); err != nil {
		return 0, 0, err
	}
	if routedMS, err = pass(e.url); err != nil {
		return 0, 0, err
	}
	directMS, err = pass(direct)
	return routedMS, directMS, err
}
