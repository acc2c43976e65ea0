package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"hyperline/internal/hg"
)

// Operation classes. Every workload has reads (or its one kind of
// operation) in classOp; deltas are in classIngest, with their own latency
// limit and sample.
const (
	classOp = iota
	classIngest
	numClasses
)

// outcome is what one operation reports to the loop that ran it.
type outcome struct {
	class int
	ok    bool      // answered, and the answer was right
	start time.Time // when the call was made
	done  time.Time // when it returned (for HTTP: the last byte was read)
}

// workload is one set-up instance of a workload: the program under test
// started and primed, ready to take operations.
type workload interface {
	dataset() *hg.Hypergraph
	// reference computes the answers operations are checked against. It
	// is the benchmark's own work, so it runs after set-up is timed.
	reference() error
	// op runs operation i. Operation indices are dense from 0; the same
	// index always means the same request.
	op(i int) outcome
	// finish runs the checks that need the whole window behind them.
	finish() error
	// layers adds the per-layer counts the program publishes.
	layers(m map[string]float64)
	close()
}

// The machine this benchmark runs on is shared, and it disturbs a run in two
// ways. Its speed moves: over ten back-to-back runs of one binary on the
// 2-vCPU target, latency and CPU time per operation rose and fell together
// by 15–30% for minutes at a time, on every workload at once. And it stalls:
// for seconds or minutes the process keeps losing the processor, so that
// wall-clock latency grows — the p90 of a 0.5 ms read up to fourfold — while
// CPU time per operation stays put.
//
// Against the first, the window is cut into intervals, each opened by a
// probe — a fixed piece of single-threaded work that depends on the machine
// and not on this repository — and every time measured in an interval is
// scaled by probeRefMS over the median of the four probes nearest to it: the
// end-to-end times are what the operations would have taken had the probe
// taken probeRefMS throughout. Against the second, the window is also cut
// into numSlices equal slices and each time-based metric is the best
// slice's value, not the whole window's: a stall only ever adds time, so the
// quietest slice is the program's own speed (ROADMAP: "a speed claim is
// min-of-N"). The blind spot — a stall of the program's own making that
// recurs but misses some slice — is what slo_met_frac is for: it counts over
// the whole window, on latencies as measured, because a client's deadline
// does not scale with the machine. The whole window's unscaled numbers are
// printed beside the result.
const (
	numSlices  = 10
	probeEvery = 200 * time.Millisecond
	// probeRefMS is what the probe takes on the machine the benchmark was
	// defined on (2.1 GHz Xeon, 2 vCPUs) at its usual speed.
	probeRefMS = 4.5
)

// prober times a fixed pure-Go loop — sorting seeded uint32 — whose cost
// depends on the machine and the Go release but not on this repository. It
// allocates nothing after newProber, so it neither triggers nor pays for
// garbage collection.
type prober struct{ src, buf []uint32 }

// probeSize makes the window's probe ≈4.5 ms: long enough to time, short
// enough to run five times a second.
const probeSize = 1 << 16

func newProber(size int) *prober {
	r := rand.New(rand.NewSource(42))
	p := &prober{src: make([]uint32, size), buf: make([]uint32, size)}
	for i := range p.src {
		p.src[i] = r.Uint32()
	}
	return p
}

// run returns how long one probe took, in ms.
func (p *prober) run() float64 {
	copy(p.buf, p.src)
	start := time.Now()
	slices.Sort(p.buf)
	return ms(time.Since(start))
}

// interval is one part of the window: the latencies of the operations run
// in it, per class, and the CPU time the process used for them (the probes'
// own CPU time is outside every interval).
type interval struct {
	slice int
	lat   [numClasses][]float64 // ms
	cpu   time.Duration
	ops   int
}

// window is what one timed window measured.
type window struct {
	intervals []interval
	// probes[j] ran just before intervals[j]; one more closes the last.
	probes    []float64
	attempted int
	failed    int     // errored, refused, or answered wrongly
	missed    int     // failed, or slower than the class's latency limit
	peakRSSMB float64 // highest resident set sampled during the window
	mallocs   uint64
	allocated uint64
	gcPause   time.Duration
}

func (w *window) record(spec *workloadSpec, o outcome) {
	iv := &w.intervals[len(w.intervals)-1]
	lat := ms(o.done.Sub(o.start))
	iv.lat[o.class] = append(iv.lat[o.class], lat)
	iv.ops++
	w.attempted++
	if !o.ok {
		w.failed++
	}
	if !o.ok || lat > spec.limitMS[o.class] {
		w.missed++
	}
}

// mainClass is the class the latency metrics describe: reads wherever there
// are any, the deltas on ingest-only.
func (w *window) mainClass() int {
	for _, iv := range w.intervals {
		if len(iv.lat[classOp]) > 0 {
			return classOp
		}
	}
	return classIngest
}

// scale is the factor interval j's times are multiplied by: probeRefMS over
// the median of the probes around it, two on either side where there are.
func (w *window) scale(j int) float64 {
	lo, hi := max(0, j-1), min(len(w.probes), j+3)
	return probeRefMS / median(w.probes[lo:hi])
}

// latencies returns a class's latencies over the whole window, ascending
// and as measured.
func (w *window) latencies(class int) []float64 {
	var out []float64
	for _, iv := range w.intervals {
		out = append(out, iv.lat[class]...)
	}
	sort.Float64s(out)
	return out
}

// cpuPerOp is the CPU time per operation over the whole window, in ms, as
// measured.
func (w *window) cpuPerOp() float64 {
	var total time.Duration
	for _, iv := range w.intervals {
		total += iv.cpu
	}
	return ratio(ms(total), float64(w.attempted))
}

// best returns the end-to-end time metrics: the lowest, over the slices, of
// each slice's scaled median and p90 latency of the class and of its scaled
// CPU time per operation (of any class), in ms.
func (w *window) best(class int) (p50, p90, cpu float64) {
	var lat [numSlices][]float64
	var cpuMS [numSlices]float64
	var ops [numSlices]int
	for j, iv := range w.intervals {
		f := w.scale(j)
		for _, l := range iv.lat[class] {
			lat[iv.slice] = append(lat[iv.slice], l*f)
		}
		cpuMS[iv.slice] += ms(iv.cpu) * f
		ops[iv.slice] += iv.ops
	}
	p50, p90, cpu = math.Inf(1), math.Inf(1), math.Inf(1)
	for k := range lat {
		if len(lat[k]) > 0 {
			sort.Float64s(lat[k])
			v50, _ := percentile(lat[k], 50)
			v90, _ := percentile(lat[k], 90)
			p50, p90 = min(p50, v50), min(p90, v90)
		}
		if ops[k] > 0 {
			cpu = min(cpu, cpuMS[k]/float64(ops[k]))
		}
	}
	return p50, p90, cpu
}

// sliceAt is the slice an interval opened at offset at belongs to. The
// window's last probe can end past dur; an interval opened then is empty,
// and counts to the last slice.
func sliceAt(at, dur time.Duration) int {
	return min(int(at*numSlices/dur), numSlices-1)
}

// runWindow runs operations first, first+1, … for dur and measures them:
// a closed loop, one caller that sends its next operation when the previous
// one returns, each timed from call to return. The mix of operations is
// fixed by their indices, not by the clock, so a slower machine runs fewer
// operations of the same mix.
func runWindow(spec *workloadSpec, w workload, first int, dur time.Duration) *window {
	win := &window{}
	pr := newProber(probeSize)
	// Hand the pages set-up and the reference computation freed back to
	// the kernel, so the resident set sampled below is the workload's own.
	debug.FreeOSMemory()
	stopRSS := sampleRSS(&win.peakRSSMB)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for i := first; time.Since(begin) < dur; {
		win.probes = append(win.probes, pr.run())
		opened, cpu0 := time.Now(), cpuTime()
		win.intervals = append(win.intervals, interval{slice: sliceAt(opened.Sub(begin), dur)})
		for time.Since(opened) < probeEvery && time.Since(begin) < dur {
			win.record(spec, w.op(i))
			i++
		}
		win.intervals[len(win.intervals)-1].cpu = cpuTime() - cpu0
	}
	win.probes = append(win.probes, pr.run())
	stopRSS()
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs
	win.allocated = after.TotalAlloc - before.TotalAlloc
	win.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return win
}

// rssInterval is how often the resident set is sampled during a window.
const rssInterval = 10 * time.Millisecond

// sampleRSS polls the process's resident set (the second field of
// /proc/self/statm, in pages) into *peak until the returned stop function is
// called; stop returns once the sampler has exited. The kernel's own
// high-water mark (VmHWM) cannot be used: it covers the whole process life,
// and for the serving workloads set-up and the reference run peak higher
// than the window does.
func sampleRSS(peak *float64) (stop func()) {
	read := func() {
		data, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return
		}
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				*peak = max(*peak, float64(pages*int64(os.Getpagesize()))/(1<<20))
			}
		}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-quit:
				read()
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}
