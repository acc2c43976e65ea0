package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"hyperline/internal/cluster"
	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/loadgen"
	"hyperline/internal/measure"
	"hyperline/internal/par"
	"hyperline/internal/serve"
)

const (
	datasetName = "bench"
	sMax        = 8 // every serving workload keeps s = 1..sMax cached
)

// sweepS is s = 1..sMax.
var sweepS = []int{1, 2, 3, 4, 5, 6, 7, 8}

// replica is one in-process hyperlined: a Service behind its HTTP handler
// on a loopback listener.
type replica struct {
	svc *serve.Service
	ts  *httptest.Server
}

// servingEnv is the serving stack a workload talks to — one replica, or a
// router in front of two — with the client and the answer checker.
type servingEnv struct {
	h        *hg.Hypergraph
	replicas []replica
	router   *httptest.Server // nil when the client talks to the replica
	fanout   *http.Client     // the router's client to its replicas
	url      string
	client   *http.Client
	tr       *tracer
	buf      bytes.Buffer // the response being read: one caller, one buffer

	respBytes, responses int64

	// Expected answers at version 1 and, per (version, measure, s), the
	// first answer seen: answers may change only with the version.
	ref      map[int]projRef
	refValue map[string]map[int]digest
	seen     map[seenKey]respEntry

	base counters // the program's counters when set-up ended
}

type seenKey struct {
	version uint64
	measure string
	s       int
}

// newServingEnv starts the stack on h and primes it: every projection for
// s = 1..sMax is computed once, through the same front door the workload
// uses, so the timed window starts on warm caches.
func newServingEnv(h *hg.Hypergraph, cfg serve.Config, routed bool, tr *tracer) (*servingEnv, error) {
	e := &servingEnv{
		h:      h,
		tr:     tr,
		client: &http.Client{Transport: &http.Transport{}},
		seen:   make(map[seenKey]respEntry),
	}
	n := 1
	if routed {
		n = 2
	}
	var urls []string
	for i := 0; i < n; i++ {
		svc := serve.New(cfg)
		svc.Add(datasetName, h)
		ts := httptest.NewServer(tr.wrap("serve.handler", serve.NewHandler(svc)))
		e.replicas = append(e.replicas, replica{svc, ts})
		urls = append(urls, ts.URL)
	}
	e.url = urls[0]
	if routed {
		e.fanout = &http.Client{Transport: &http.Transport{}}
		rt := cluster.NewRouter(cluster.Config{Replicas: urls, Replication: 2, Client: e.fanout})
		e.router = httptest.NewServer(tr.wrap("cluster.router", rt.Handler()))
		e.url = e.router.URL
	}
	if o := e.query(e.url, newQuery(1, sMax, "", false)); !o.ok {
		e.close()
		return nil, fmt.Errorf("bench: priming query failed")
	}
	return e, nil
}

func (e *servingEnv) close() {
	e.client.CloseIdleConnections()
	if e.router != nil {
		e.router.Close()
		e.fanout.CloseIdleConnections()
	}
	for _, r := range e.replicas {
		r.ts.Close()
		r.svc.Close()
	}
}

// reference computes the version-1 answers directly with core.RunBatch on
// one worker — with the named measures' values for s ≥ measureLo — and
// snapshots the program's counters so layers reports what the workload
// itself caused.
func (e *servingEnv) reference(measureLo int, measures ...string) error {
	results, err := referenceSweep(e.h)
	if err != nil {
		return err
	}
	e.ref = make(map[int]projRef, sMax)
	e.refValue = make(map[string]map[int]digest)
	for s, res := range results {
		e.ref[s] = refOf(res)
		for _, name := range measures {
			if s < measureLo {
				break
			}
			m, err := measure.Get(name)
			if err != nil {
				return err
			}
			p, err := measure.Canonicalize(m, nil)
			if err != nil {
				return err
			}
			val, err := m.Compute(context.Background(), res, p, par.Options{Workers: 1})
			if err != nil {
				return err
			}
			raw, err := json.Marshal(val)
			if err != nil {
				return err
			}
			if e.refValue[name] == nil {
				e.refValue[name] = make(map[int]digest)
			}
			e.refValue[name][s] = fnvOffset.addBytes(raw)
		}
	}
	// The priming answer was recorded before the reference existed.
	for k, got := range e.seen {
		if !e.matchesRef(k, got, false) {
			return fmt.Errorf("bench: priming answer for s=%d differs from core.RunBatch", k.s)
		}
	}
	e.base, err = e.readCounters()
	return err
}

// referenceSweep computes the projections for s = 1..sMax directly, on one
// worker: by the pipeline's contract every worker count, cache tier and
// patch path must produce these bytes.
func referenceSweep(h *hg.Hypergraph) (map[int]*core.PipelineResult, error) {
	return core.RunBatch(context.Background(), h, sweepS, core.PipelineConfig{Core: core.Config{Workers: 1}})
}

// querySpec is one /v2/query request and what its answer must cover.
type querySpec struct {
	body    []byte
	lo, hi  int
	measure string
	edges   bool
}

func newQuery(lo, hi int, measureName string, edges bool) querySpec {
	req := map[string]any{"dataset": datasetName, "s": fmt.Sprintf("%d:%d", lo, hi)}
	if measureName != "" {
		req["measure"] = measureName
	}
	if edges {
		req["edges"] = true
	}
	body, _ := json.Marshal(req) // a map of strings and bools always marshals
	return querySpec{body: body, lo: lo, hi: hi, measure: measureName, edges: edges}
}

// post sends body and reads the whole response into e.buf.
func (e *servingEnv) post(url string, body []byte) (status int, start, done time.Time, err error) {
	start = time.Now()
	resp, err := e.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, start, time.Now(), err
	}
	e.buf.Reset()
	_, err = e.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, start, time.Now(), err
}

// query sends q to the stack at url and checks the answer: every requested
// s answered without error, equal to the first answer seen at that version
// and, at version 1, to the reference.
func (e *servingEnv) query(url string, q querySpec) outcome {
	status, start, done, err := e.post(url+"/v2/query", q.body)
	o := outcome{start: start, done: done}
	if err != nil || status != http.StatusOK {
		return o
	}
	e.respBytes += int64(e.buf.Len())
	e.responses++
	info, err := scanQueryResponse(e.buf.Bytes())
	if err != nil || len(info.entries) != q.hi-q.lo+1 {
		return o
	}
	if e.tr.recording() && e.router == nil {
		// elapsed_ms is the handler's own clock around Service.Query;
		// lay it out from the handler span's start.
		if hs, ok := e.tr.lastStart("serve.handler"); ok {
			name := "serve.query"
			if q.measure != "" {
				name = "measure." + q.measure
			}
			e.tr.add(name, hs, hs.Add(time.Duration(info.elapsedMS*float64(time.Millisecond))))
		}
	}
	o.ok = true
	for i, got := range info.entries {
		k := seenKey{info.version, q.measure, q.lo + i}
		if got.s != k.s || got.errMsg != "" {
			o.ok = false
			continue
		}
		first, known := e.seen[k]
		if !known {
			e.seen[k] = got
			first = got
		}
		same := got.nodes == first.nodes && got.edges == first.edges && got.ids == first.ids && got.value == first.value
		if !same || (e.ref != nil && !e.matchesRef(k, got, q.edges)) {
			o.ok = false
		}
	}
	return o
}

// matchesRef compares an answer with the version-1 reference; answers at
// later versions have no reference until the final check.
func (e *servingEnv) matchesRef(k seenKey, got respEntry, edges bool) bool {
	if k.version != 1 {
		return true
	}
	want := e.ref[k.s]
	if got.nodes != want.nodes || got.edges != want.edges {
		return false
	}
	// Measures whose value is not per node answer without the node → ID
	// mapping; where it is sent it must be right.
	if got.ids != want.ids && (k.measure == "" || got.ids != fnvOffset) {
		return false
	}
	if edges && got.edgeList != want.edgeSet {
		return false
	}
	return k.measure == "" || got.value == e.refValue[k.measure][k.s]
}

// finalCheck asks for the full sweep with edge lists and compares IDs,
// edges and weights with core.RunBatch on want — the hypergraph the served
// dataset must now equal.
func (e *servingEnv) finalCheck(want *hg.Hypergraph) error {
	status, _, _, err := e.post(e.url+"/v2/query", newQuery(1, sMax, "", true).body)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("bench: final sweep: status %d: %v", status, err)
	}
	info, err := scanQueryResponse(e.buf.Bytes())
	if err != nil {
		return err
	}
	results, err := referenceSweep(want)
	if err != nil {
		return err
	}
	if len(info.entries) != sMax {
		return fmt.Errorf("bench: final sweep answered %d of %d s values", len(info.entries), sMax)
	}
	for _, got := range info.entries {
		ref := refOf(results[got.s])
		if got.errMsg != "" || got.nodes != ref.nodes || got.edges != ref.edges || got.ids != ref.ids || got.edgeList != ref.edgeSet {
			return fmt.Errorf("bench: final sweep differs from core.RunBatch at s=%d", got.s)
		}
	}
	return nil
}

// counters are the program's own published counts, summed over replicas.
type counters struct {
	hits, misses                 float64
	flightDedups, projComputes   float64
	measureComputes              float64
	admitQueued, admitShed       float64
	ingests                      float64
	migrated, patched, dropped   float64
	routerQueries, routerSubreqs float64
	routerRetries                float64
	respBytes, responses         float64
}

func (e *servingEnv) readCounters() (counters, error) {
	var c counters
	for _, r := range e.replicas {
		cs := r.svc.CacheStats()
		c.hits += float64(cs.Hits)
		c.misses += float64(cs.Misses)
		ms := r.svc.MeasureCacheStats()
		c.measureComputes += float64(ms.Computes)
		as := r.svc.AdmissionStats()
		c.admitQueued += float64(as.Queued)
		c.admitShed += float64(as.ShedInteractive + as.ShedBackground)
		var text strings.Builder
		if err := r.svc.WriteMetrics(&text); err != nil {
			return c, err
		}
		m, err := loadgen.ParseMetrics(text.String())
		if err != nil {
			return c, err
		}
		c.flightDedups += m[`hyperline_singleflight_dedups_total{flight="projection"}`] + m[`hyperline_singleflight_dedups_total{flight="measure"}`]
		c.projComputes += m["hyperline_projection_computes_total"]
		c.ingests += m["hyperline_ingest_applied_total"]
		c.migrated += m[`hyperline_ingest_projection_outcomes_total{outcome="migrated"}`]
		c.patched += m[`hyperline_ingest_projection_outcomes_total{outcome="patched"}`]
		c.dropped += m[`hyperline_ingest_projection_outcomes_total{outcome="dropped"}`]
	}
	if e.router != nil {
		m, err := loadgen.FetchMetrics(context.Background(), e.client, e.router.URL)
		if err != nil {
			return c, err
		}
		c.routerQueries = m["hyperrouter_queries_total"]
		c.routerRetries = m["hyperrouter_retries_total"]
		for name, v := range m {
			if strings.HasPrefix(name, "hyperrouter_subrequests_total") {
				c.routerSubreqs += v
			}
		}
	}
	c.respBytes = float64(e.respBytes)
	c.responses = float64(e.responses)
	return c, nil
}

// layers reports the counters as deltas since set-up ended, and returns the
// deltas for counts only some workloads report.
func (e *servingEnv) layers(m map[string]float64) (measureComputes, responses float64) {
	now, err := e.readCounters()
	if err != nil {
		return 0, 0
	}
	b := e.base
	hits, misses := now.hits-b.hits, now.misses-b.misses
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.flight_dedups"] = now.flightDedups - b.flightDedups
	m["serve.admit_queued"] = now.admitQueued - b.admitQueued
	m["serve.admit_shed"] = now.admitShed - b.admitShed
	m["serve.resp_kb"] = ratio((now.respBytes-b.respBytes)/1024, now.responses-b.responses)
	deltas := now.ingests - b.ingests
	walked := (now.migrated - b.migrated) + (now.patched - b.patched) + (now.dropped - b.dropped)
	m["delta.patched_frac"] = ratio(now.patched-b.patched, walked)
	m["delta.dropped_frac"] = ratio(now.dropped-b.dropped, walked)
	m["serve.recomputes_per_delta"] = ratio(now.projComputes-b.projComputes, deltas)
	m["cluster.subrequests_per_query"] = ratio(now.routerSubreqs-b.routerSubreqs, now.routerQueries-b.routerQueries)
	m["cluster.retries"] = now.routerRetries - b.routerRetries
	return now.measureComputes - b.measureComputes, now.responses - b.responses
}

// readStream draws n read requests: an s-range ⊂ [1, sMax] each, except
// that a share componentsFrac of them ask for the components measure at a
// single s.
func readStream(seed int64, n int, componentsFrac float64) []querySpec {
	r := rand.New(rand.NewSource(seed))
	reqs := make([]querySpec, n)
	for i := range reqs {
		lo := 1 + r.Intn(sMax)
		hi := lo + r.Intn(sMax-lo+1)
		if componentsFrac > 0 && r.Float64() < componentsFrac {
			reqs[i] = newQuery(lo, lo, "components", false)
		} else {
			reqs[i] = newQuery(lo, hi, "", false)
		}
	}
	return reqs
}

// streamLen is how many reads a stream holds before it repeats.
const streamLen = 8192
