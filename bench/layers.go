package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

// perLayer lists every per-layer metric. A traced run prints all of them
// for every workload; a layer that does no work on a workload reports 0,
// which is also the prediction for it there.
var perLayer = []metricDef{
	{"hgio.save_bin_ms", "ms"},
	{"hgio.map_bin_ms", "ms"},
	{"hgio.load_adj_ms", "ms"},
	{"hg.stage1_ms", "ms"},
	{"hg.stage1_share", "ratio"},
	{"core.stage3_ms", "ms"},
	{"core.stage3_share", "ratio"},
	{"core.wedges", "count"},
	{"core.mwedges_per_s", "Mwedges/s"},
	{"core.worker_imbalance", "ratio"},
	{"core.edges_out", "count"},
	{"core.plan_strategy_ok", "count"},
	{"graph.stage4_ms", "ms"},
	{"graph.stage4_share", "ratio"},
	{"graph.medges_per_s", "Medges/s"},
	{"hyperline.execute_overhead_ms", "ms"},
	{"hyperline.unattributed_frac", "ratio"},
	{"measure.components_ms", "ms"},
	{"measure.pagerank_ms", "ms"},
	{"measure.connectivity_ms", "ms"},
	{"measure.computes_per_op", "count"},
	{"serve.query_hit_us", "us"},
	{"serve.handler_self_ms", "ms"},
	{"serve.handler_share", "ratio"},
	{"serve.transport_self_ms", "ms"},
	{"serve.resp_kb", "KB"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.flight_dedups", "count"},
	{"serve.admit_queued", "count"},
	{"serve.admit_shed", "count"},
	{"serve.allocs_per_op", "count"},
	{"serve.alloc_kb_per_op", "KB"},
	{"serve.gc_pause_ms", "ms"},
	{"serve.ingest_ms", "ms"},
	{"delta.apply_ms", "ms"},
	{"delta.patch_ms", "ms"},
	{"serve.ingest_walk_self_ms", "ms"},
	{"delta.patched_frac", "ratio"},
	{"delta.dropped_frac", "ratio"},
	{"serve.recomputes_per_delta", "count"},
	{"cluster.router_self_ms", "ms"},
	{"cluster.subrequests_per_query", "count"},
	{"cluster.retries", "count"},
	{"cluster.cpu_ms_per_op_over_direct", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.ingest_p50_ms", "ms"},
	{"client.fail_frac", "ratio"},
	{"client.slo_miss_frac", "ratio"},
	{"client.open_p50_ms", "ms"},
	{"client.open_p90_ms", "ms"},
	{"client.open_slo_miss_frac", "ratio"},
	{"bench.ops", "count"},
	{"bench.open_ops", "count"},
	{"bench.sched_late_p90_ms", "ms"},
	{"bench.p90_supported", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.calib_ms", "ms"},
	{"bench.probe_ms", "ms"},
}

// routerCostOps is how many reads each pass of the router-cost comparison
// sends.
const routerCostOps = 200

// tracedRun produces the per-layer metrics, in two or three equal parts of
// the time. The first is the workload exactly as the untraced run drives it,
// for the counts and the client-side numbers that need real traffic. The
// second replays the same request stream one operation at a time with spans
// recorded, so every span belongs to a known operation. A seeded coin
// records two replayed operations in three; the rest run with recording
// off, and the gap between the two groups' medians is the tracing overhead.
// (A coin, not a period: any fixed period lines up with some period of the
// request stream.) The third, on the workloads that stand for independent
// clients, sends the stream on an arrival schedule (open.go).
func tracedRun(spec *workloadSpec, seed int64, dur time.Duration, outDir string, hdr header) (result, error) {
	tr := newTracer()
	w, err := spec.build(seed, tr)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	m := make(map[string]float64, len(perLayer))
	m["bench.calib_ms"] = hdr.CalibMS
	if err := hgioTimings(w.dataset(), outDir, m); err != nil {
		return result{}, err
	}
	if err := w.reference(); err != nil {
		return result{}, err
	}
	for i := 0; i < spec.warmup; i++ {
		w.op(i)
	}
	part := dur / 2
	if spec.open {
		part = dur / 3
	}
	win := runWindow(spec, w, spec.warmup, part)
	windowLayers(win, m)
	next := spec.warmup + win.attempted
	attempted, failed := win.attempted, win.failed

	var plain, clientMS []float64
	coin := rand.New(rand.NewSource(seed))
	begin := time.Now()
	for n := 0; time.Since(begin) < part; n++ {
		record := coin.Intn(3) != 0
		tr.begin(n, record)
		o := w.op(next)
		next++
		attempted++
		if !o.ok {
			failed++
		}
		lat := ms(o.done.Sub(o.start))
		if record {
			tr.add("client", o.start, o.done)
			clientMS = append(clientMS, lat)
		} else {
			plain = append(plain, lat)
		}
	}
	tr.begin(-1, false)
	if len(plain) > 0 {
		m["bench.trace_overhead_frac"] = median(clientMS)/median(plain) - 1
	}
	spanLayers(tr.selfTimes(), sum(clientMS), m)

	if spec.open {
		sched := schedule(seed, openRate, part)
		or := runOpen(spec, w, next, sched)
		openLayers(or, len(sched), m)
		attempted += len(sched)
		failed += or.failed
	}
	w.layers(m)
	if sw, ok := w.(*streamWorkload); ok && sw.env.router != nil {
		routedMS, directMS, err := sw.directCPU(routerCostOps)
		if err != nil {
			return result{}, err
		}
		m["cluster.cpu_ms_per_op_over_direct"] = routedMS - directMS
	}
	err = w.finish()
	if werr := tr.write(filepath.Join(outDir, "trace-"+spec.name+".json")); err == nil {
		err = werr
	}

	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	for _, d := range perLayer {
		res.Metrics[d.name] = value{m[d.name], d.unit}
	}
	return res, err
}

// openLayers reports the open-loop segment: the reads' latency from due
// time, the share of all arrivals that missed their limit, and how late the
// generator ran.
func openLayers(or openResult, arrivals int, m map[string]float64) {
	lat := or.lat[classOp]
	sort.Float64s(lat)
	m["client.open_p50_ms"], _ = percentile(lat, 50)
	m["client.open_p90_ms"], _ = percentile(lat, 90)
	m["client.open_slo_miss_frac"] = ratio(float64(or.missed), float64(arrivals))
	m["bench.open_ops"] = float64(arrivals)
	sort.Float64s(or.late)
	m["bench.sched_late_p90_ms"], _ = percentile(or.late, 90)
}

// windowLayers reports what the regular window shows of the client and of
// the process as a whole.
func windowLayers(win *window, m map[string]float64) {
	lat := win.latencies(win.mainClass())
	m["client.latency_p99_ms"], _ = percentile(lat, 99)
	if _, ok := percentile(lat, 90); ok {
		m["bench.p90_supported"] = 1
	}
	m["client.ingest_p50_ms"] = median(win.latencies(classIngest))
	m["bench.probe_ms"] = median(win.probes)
	ops := float64(win.attempted)
	m["client.fail_frac"] = float64(win.failed) / ops
	m["client.slo_miss_frac"] = float64(win.missed) / ops
	m["bench.ops"] = ops
	m["serve.allocs_per_op"] = float64(win.mallocs) / ops
	m["serve.alloc_kb_per_op"] = float64(win.allocated) / 1024 / ops
	m["serve.gc_pause_ms"] = ms(win.gcPause)
}

// spanLayers turns self times into the per-layer timing metrics: medians
// over the recorded operations for the _ms metrics, sums over all of them
// for the shares of the client span.
func spanLayers(st map[string]spanTimes, clientTotalMS float64, m map[string]float64) {
	for _, stage := range []string{"hg.stage1", "core.stage3", "graph.stage4"} {
		m[stage+"_ms"] = median(st[stage].self)
		m[stage+"_share"] = ratio(sum(st[stage].self), clientTotalMS)
	}
	if _, cold := st["hg.stage1"]; cold {
		// Execute's own time: the client span minus the stages inside it.
		m["hyperline.execute_overhead_ms"] = median(st["client"].self)
		m["hyperline.unattributed_frac"] = ratio(sum(st["client"].self), clientTotalMS)
	} else {
		// Loopback transport plus the client's own send and read.
		m["serve.transport_self_ms"] = median(st["client"].self)
	}
	m["measure.components_ms"] = median(st["measure.components"].self)
	m["measure.pagerank_ms"] = median(st["measure.pagerank"].self)
	m["measure.connectivity_ms"] = median(st["measure.connectivity"].self)
	m["serve.query_hit_us"] = median(st["serve.query"].self) * 1000
	m["serve.handler_self_ms"] = median(st["serve.handler"].self)
	m["serve.handler_share"] = ratio(sum(st["serve.handler"].self), clientTotalMS)
	m["serve.ingest_ms"] = median(st["serve.ingest"].total)
	m["serve.ingest_walk_self_ms"] = median(st["serve.ingest"].self)
	m["delta.apply_ms"] = median(st["delta.apply"].self)
	m["delta.patch_ms"] = median(st["delta.patch"].self)
	m["cluster.router_self_ms"] = median(st["cluster.router"].self)
}

// hgioTimings times the dataset's round trip through the binary and text
// formats, in scratch files under dir.
func hgioTimings(h *hg.Hypergraph, dir string, m map[string]float64) error {
	bin := filepath.Join(dir, "dataset.bin")
	adj := filepath.Join(dir, "dataset.adj")
	defer os.Remove(bin)
	defer os.Remove(adj)

	start := time.Now()
	if err := hgio.SaveBinary(bin, h); err != nil {
		return err
	}
	m["hgio.save_bin_ms"] = ms(time.Since(start))

	start = time.Now()
	mapped, err := hgio.MapBinary(bin)
	if err != nil {
		return err
	}
	m["hgio.map_bin_ms"] = ms(time.Since(start))
	if err := mapped.Close(); err != nil {
		return err
	}

	if err := hgio.SaveFile(adj, h); err != nil {
		return err
	}
	start = time.Now()
	if _, err := hgio.LoadFile(adj); err != nil {
		return err
	}
	m["hgio.load_adj_ms"] = ms(time.Since(start))
	return nil
}
