// Command bench is the repository's benchmark: one program that sets up a
// named workload from a seed, runs it for a fixed time, checks every answer,
// and prints the metrics BENCHMARK.json lists — the end-to-end ones from an
// untraced run, the per-layer ones from a traced run. It measures every
// layer from outside, by timing calls into public functions and reading
// what the program already publishes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	name string
	// warmup operations run before the window and are discarded.
	warmup int
	// limitMS is the latency limit behind slo_met_frac, per operation
	// class: four times the p90 measured when the benchmark was defined or
	// more (a read that follows a delta may have to recompute), then frozen.
	limitMS [numClasses]float64
	// open workloads stand for independent clients: their traced run adds
	// an open-loop segment.
	open  bool
	build func(seed int64, tr *tracer) (workload, error)
}

// The workload table. BENCHMARK.json records why each exists.
//
// Every gated loop is closed, with one caller. Sent open at 100/s on the
// 2-vCPU target the same requests' p50 spread 14–32% of its median over ten
// seeds (idle-vCPU wake-ups, reads queueing behind deltas), so the open loop
// is a segment of the traced run, reported and not gated.
var workloads = []workloadSpec{
	{name: "cold-single", warmup: 3, limitMS: [numClasses]float64{400},
		build: newCold(liveJournalConfig(), []int{8}, "hashmap")},
	{name: "cold-sweep", warmup: 3, limitMS: [numClasses]float64{400},
		build: newCold(friendsterConfig(2), sweepS, "ensemble")},
	{name: "warm-sweep", warmup: 200, limitMS: [numClasses]float64{10}, open: true,
		build: newStream(friendsterConfig(1), false, 0, 0)},
	{name: "measure-bundle", warmup: 3, limitMS: [numClasses]float64{400},
		build: newBundle(friendsterConfig(1))},
	{name: "ingest-mixed", warmup: 200, limitMS: [numClasses]float64{150, 300}, open: true,
		build: newStream(friendsterConfig(1), false, 0.15, 20)},
	{name: "ingest-only", warmup: 10, limitMS: [numClasses]float64{0, 100},
		build: newStream(friendsterConfig(1), false, 0, 1)},
	{name: "routed", warmup: 200, limitMS: [numClasses]float64{30}, open: true,
		build: newStream(friendsterConfig(1), true, 0, 0)},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names a metric and its unit; BENCHMARK.json adds direction and
// bound, and a test keeps the two lists equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"slo_met_frac", "ratio"},
}

// setupReps is how many times an untraced run sets the workload up; setup_s
// is the median.
const setupReps = 9

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed for dataset labelling and every traffic draw")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace-<workload>.json and scratch files")
		all     = flag.Int("all", 0, "run every workload this many times, traced pass included, and print one report")
		compare = flag.Bool("compare", false, "compare two -all reports: bench -compare a.json b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareReports(flag.Args())
	case *all > 0:
		err = runAll(*all, *seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runOne is the contract's run: one workload, one pass, the result as the
// last line of standard output. A failed check or a failed operation still
// prints the result (with correct false) and then exits non-zero.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) error {
	spec := findWorkload(name)
	if spec == nil {
		return fmt.Errorf("bench: unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("bench: -seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	hdr := newHeader(seed)
	hdrLine, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	fmt.Printf("# %s\n", hdrLine)

	dur := time.Duration(seconds) * time.Second
	var res result
	if traced {
		res, err = tracedRun(spec, seed, dur, outDir, hdr)
	} else {
		res, err = untracedRun(spec, seed, dur)
	}
	if res.Metrics == nil {
		return err // set-up itself failed: there is nothing to report
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	res.Correct = err == nil && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("bench: %s: %d of %d operations failed or a check did not hold", name, res.Failed, res.Attempted)
	}
	return nil
}

// untracedRun sets the workload up, runs the warm-up and the window, checks
// the answers, and then sets it up setupReps-1 more times: setup_s is the
// median of all the set-ups. The repeats come last so that their garbage is
// not in the resident set the window is charged with. The time-based
// metrics are the best slice's, scaled to the reference machine speed
// (loop.go); the whole window's, as measured, are printed on a comment line
// of their own.
func untracedRun(spec *workloadSpec, seed int64, dur time.Duration) (result, error) {
	pr := newProber(probeSize)
	w, setup, err := timedSetup(spec, seed, pr)
	if err != nil {
		return result{}, err
	}
	setups := []float64{setup}
	if err := w.reference(); err != nil {
		w.close()
		return result{}, err
	}
	for i := 0; i < spec.warmup; i++ {
		w.op(i)
	}
	win := runWindow(spec, w, spec.warmup, dur)
	checkErr := w.finish()
	w.close()
	for len(setups) < setupReps {
		runtime.GC()
		w, setup, err := timedSetup(spec, seed, pr)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, setup)
		w.close()
	}

	class := win.mainClass()
	lat := win.latencies(class)
	rawP50, _ := percentile(lat, 50)
	rawP90, _ := percentile(lat, 90)
	unscaled, err := json.Marshal(map[string]any{
		"unscaled":     map[string]float64{"latency_p50_ms": rawP50, "latency_p90_ms": rawP90, "cpu_ms_per_op": win.cpuPerOp()},
		"probe_ms":     median(win.probes),
		"probe_ref_ms": probeRefMS,
	})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s\n", unscaled)
	p50, p90, cpu := win.best(class)
	m := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"cpu_ms_per_op":  cpu,
		"peak_rss_mb":    win.peakRSSMB,
		"slo_met_frac":   1 - float64(win.missed)/float64(win.attempted),
	}
	res := result{Attempted: win.attempted, Failed: win.failed, Metrics: make(map[string]value)}
	for _, d := range endToEnd {
		res.Metrics[d.name] = value{m[d.name], d.unit}
	}
	return res, checkErr
}

// timedSetup sets the workload up and returns how long that took, in
// seconds, scaled by the probes run on either side of it.
func timedSetup(spec *workloadSpec, seed int64, pr *prober) (workload, float64, error) {
	before := pr.run()
	start := time.Now()
	w, err := spec.build(seed, nil)
	took := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, err
	}
	return w, took * probeRefMS / ((before + pr.run()) / 2), nil
}
