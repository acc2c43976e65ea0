package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/delta"
	"hyperline/internal/experiments"
	"hyperline/internal/gen"
	"hyperline/internal/graph"
	"hyperline/internal/hg"
)

// These tests assert logic only — no wall-clock — so tier-1 stays fast and
// deterministic.

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, supported %v; want 90, true", v, ok)
	}
	if v, ok := percentile(xs, 50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v, supported %v; want 50, true", v, ok)
	}
	// 99 samples leave 9 beyond the p90: still reported, but flagged.
	if v, ok := percentile(xs[:99], 90); v != 90 || ok {
		t.Errorf("p90 of 1..99 = %v, supported %v; want 90, false", v, ok)
	}
	if _, ok := percentile(xs, 99); ok {
		t.Error("p99 of 100 samples must not be supported")
	}
	if v, ok := percentile(nil, 50); v != 0 || ok {
		t.Errorf("percentile of nothing = %v, supported %v; want 0, false", v, ok)
	}
}

func TestBestSliceScaledIgnoresSpeedAndStalls(t *testing.T) {
	// Ten slices of one interval of 20 operations each. The machine slows
	// from full to half speed between the fourth probe and the eighth;
	// every latency and the CPU time of an interval grow by the mean of the
	// probes on either side of it. In two slices of three, stalls add
	// 0.4 ms of waiting to every operation and no CPU time.
	speed := func(i int) float64 { return min(max(1, 1+0.25*float64(i-3)), 2) }
	spec := &workloadSpec{limitMS: [numClasses]float64{10}}
	win := &window{}
	for k := 0; k <= numSlices; k++ {
		win.probes = append(win.probes, probeRefMS*speed(k))
	}
	slowdown := func(k int) float64 { return (speed(k) + speed(k+1)) / 2 }
	for k := 0; k < numSlices; k++ {
		stall := 0.0
		if k%3 != 0 {
			stall = 0.4
		}
		win.intervals = append(win.intervals, interval{slice: k, cpu: time.Duration(slowdown(k) * 30 * float64(time.Millisecond))})
		for i := 0; i < 20; i++ {
			win.record(spec, outcome{ok: true, done: time.Time{}.Add(time.Duration((slowdown(k) + stall) * float64(time.Millisecond)))})
		}
	}

	if a, b, c := sliceAt(0, time.Second), sliceAt(999*time.Millisecond, time.Second), sliceAt(1003*time.Millisecond, time.Second); a != 0 || b != numSlices-1 || c != numSlices-1 {
		t.Errorf("slices at the window's start, end and just past it: %d, %d, %d", a, b, c)
	}

	// As measured, the whole window shows the slow half and the stalls.
	if v, ok := percentile(win.latencies(classOp), 90); v != 2.4 || !ok {
		t.Errorf("p90 as measured = %v, supported %v; want 2.4, true", v, ok)
	}
	if got := win.cpuPerOp(); got < 2 {
		t.Errorf("CPU per op as measured = %v ms, want the slow half to show", got)
	}
	for k := 0; k < numSlices; k++ {
		if got := win.scale(k) * slowdown(k); math.Abs(got-1) > 1e-9 {
			t.Errorf("interval %d: scaled slowdown %v, want 1", k, got)
		}
	}
	// The best slice is a quiet one, at any speed.
	p50, p90, cpu := win.best(classOp)
	if math.Abs(p50-1) > 1e-6 || math.Abs(p90-1) > 1e-6 || math.Abs(cpu-1.5) > 1e-6 {
		t.Errorf("best slice: p50 %v, p90 %v, CPU per op %v; want 1, 1, 1.5", p50, p90, cpu)
	}
	if win.attempted != 200 || win.failed != 0 || win.missed != 0 || win.mainClass() != classOp {
		t.Errorf("window counts %d/%d/%d, class %d", win.attempted, win.failed, win.missed, win.mainClass())
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartileSpread([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("quartileSpread(1,2,4) = %v, want 1.5", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("a single run has no spread, got %v", got)
	}
}

func TestRequestStreamIsDeterministic(t *testing.T) {
	a, b := readStream(3, 500, 0.15), readStream(3, 500, 0.15)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request streams")
	}
	measures := 0
	for _, q := range a {
		if q.lo < 1 || q.hi > sMax || q.lo > q.hi {
			t.Fatalf("s-range %d:%d outside [1,%d]", q.lo, q.hi, sMax)
		}
		if q.measure != "" {
			measures++
			if q.lo != q.hi {
				t.Fatalf("measure read over %d:%d, want a single s", q.lo, q.hi)
			}
		}
	}
	if measures < 40 || measures > 110 {
		t.Errorf("%d of 500 reads ask for a measure, want about 15%%", measures)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	a, b := schedule(3, 100, 5*time.Second), schedule(3, 100, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if len(a) != 500 {
		t.Fatalf("%d arrivals, want rate x duration = 500", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[0] < 0 || a[len(a)-1] >= 5*time.Second {
		t.Error("arrivals must be in order and inside the segment")
	}
	if reflect.DeepEqual(a, schedule(4, 100, 5*time.Second)) {
		t.Error("seed 4 gave seed 3's schedule")
	}
}

// lateWorkload answers every operation after a fixed service time, on a
// clock of its own that runOpen cannot see: what runOpen adds must be the
// wait from due time to send.
type lateWorkload struct {
	workload
	service time.Duration
}

func (w lateWorkload) op(int) outcome {
	start := time.Now()
	return outcome{ok: true, start: start, done: start.Add(w.service)}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Three arrivals due at once: the caller is idle for none of them (the
	// segment has begun when the first is sent), and each is charged at
	// least the service time — never less, however late it was sent.
	spec := &workloadSpec{limitMS: [numClasses]float64{1e9}}
	r := runOpen(spec, lateWorkload{service: 5 * time.Millisecond}, 0, []time.Duration{0, 0, 0})
	if len(r.lat[classOp]) != 3 || len(r.late) != 0 || r.failed != 0 || r.missed != 0 {
		t.Fatalf("open loop recorded %+v", r)
	}
	for i, lat := range r.lat[classOp] {
		if lat < 5 {
			t.Errorf("arrival %d: %v ms from due time, below the 5 ms service time", i, lat)
		}
	}
	// With a limit below the service time every arrival misses.
	spec.limitMS[classOp] = 1
	if r := runOpen(spec, lateWorkload{service: 5 * time.Millisecond}, 0, []time.Duration{0, 0}); r.missed != 2 {
		t.Errorf("%d of 2 arrivals missed a 1 ms limit, want 2", r.missed)
	}
}

// A wrong reference digest must fail every operation: the check the command
// rests on cannot pass by default.
func TestColdOpFailsOnWrongDigest(t *testing.T) {
	cfg := gen.CommunityConfig{Seed: 9, NumVertices: 400, NumCommunities: 30, MeanCommunitySize: 5, MaxCommunitySize: 20, Background: 50}
	w, err := newCold(cfg, []int{2}, "hashmap")(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	if !w.op(0).ok {
		t.Fatal("operation failed against its own reference")
	}
	c := w.(*coldWorkload)
	ref := c.ref[2]
	ref.edgeSet ^= 1
	c.ref[2] = ref
	if w.op(1).ok {
		t.Error("operation passed against a reference digest with one bit flipped")
	}
}

func TestDigestSeesOneWeight(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 3}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 2}}
	res := func(es []graph.Edge) *core.PipelineResult {
		return &core.PipelineResult{Graph: graph.Build(3, es, false), HyperedgeIDs: []uint32{4, 5, 9}}
	}
	base := refOf(res(edges))
	changed := append([]graph.Edge(nil), edges...)
	changed[1].W = 2
	if got := refOf(res(changed)); got.edgeSet == base.edgeSet {
		t.Error("changing one edge weight left the digest unchanged")
	} else if got.ids != base.ids {
		t.Error("changing a weight must not change the ID digest")
	}

	// The same projection read back from the wire digests equally, in
	// any field order and spacing.
	body := []byte(`{ "elapsed_ms": 0.25, "results": [ {"edge_list": [[0,1,3], [0, 2, 1],[1,2,2]],
		"hyperedge_ids":[4,5,9], "edges":3, "nodes":3, "cached":true, "s":2,
		"timings_ms":{"total":1.5}, "value":{"scalar": 1}} ], "version": 7, "dataset":"a\"b" }`)
	info, err := scanQueryResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if info.version != 7 || info.elapsedMS != 0.25 || len(info.entries) != 1 {
		t.Fatalf("scanned %+v", info)
	}
	e := info.entries[0]
	if e.s != 2 || e.nodes != 3 || e.edges != 3 || e.ids != base.ids || e.edgeList != base.edgeSet {
		t.Errorf("entry %+v does not match the in-memory digests %+v", e, base)
	}
	if e.value != fnvOffset.addBytes([]byte(`{"scalar":1}`)) {
		t.Error("value digest must ignore whitespace")
	}
	if _, err := scanQueryResponse([]byte(`{"results":[{"s":1,"hyperedge_ids":[1,2`)); err == nil {
		t.Error("a truncated body must be an error")
	}
}

func TestDatasetShapes(t *testing.T) {
	same := func(name string, got, want *hg.Hypergraph) {
		t.Helper()
		if got.NumEdges() != want.NumEdges() || got.Incidences() != want.Incidences() || got.NumVertices() != want.NumVertices() {
			t.Errorf("%s: %d hyperedges / %d incidences / %d vertices, analog has %d / %d / %d", name,
				got.NumEdges(), got.Incidences(), got.NumVertices(), want.NumEdges(), want.Incidences(), want.NumVertices())
		}
	}
	fr1 := makeDataset(friendsterConfig(1), 1)
	same("fr1", fr1, experiments.FriendsterAnalog(1))
	same("fr2", makeDataset(friendsterConfig(2), 1), experiments.FriendsterAnalog(2))

	// The LiveJournal analog is run at 0.3 of scale 1: the same generator
	// seed and shape parameters, the size parameters scaled.
	lj := liveJournalConfig()
	if lj.Seed != 1001 || lj.NumVertices*10 != 30000*3 || lj.NumCommunities*10 != 3500*3 || lj.Background*10 != 4000*3 ||
		lj.MeanCommunitySize != 10 || lj.MaxCommunitySize != 1200 || lj.EdgesPerCommunity != 4 || lj.Bridge != 0.25 {
		t.Errorf("liveJournalConfig %+v is not experiments.LiveJournalAnalog at 0.3", lj)
	}

	// Another seed relabels: the same shape and the same multiset of
	// hyperedge sizes, on different IDs.
	other := makeDataset(friendsterConfig(1), 4)
	same("fr1 at seed 4", other, fr1)
	sizes := func(h *hg.Hypergraph) []int {
		out := make([]int, h.NumEdges())
		for e := range out {
			out[e] = h.EdgeSize(uint32(e))
		}
		sort.Ints(out)
		return out
	}
	if !reflect.DeepEqual(sizes(other), sizes(fr1)) {
		t.Error("relabelling changed the hyperedge sizes")
	}
	if reflect.DeepEqual(other.EdgeSlices(), fr1.EdgeSlices()) {
		t.Error("seed 4 gave seed 1's labelling")
	}
	if !reflect.DeepEqual(makeDataset(friendsterConfig(1), 4).EdgeSlices(), other.EdgeSlices()) {
		t.Error("the same seed gave two datasets")
	}
}

func TestDeltaStreamDeletesOnlyLiveInserts(t *testing.T) {
	base := gen.Community(gen.CommunityConfig{Seed: 9, NumVertices: 400, NumCommunities: 30, MeanCommunitySize: 5, MaxCommunitySize: 20, Background: 50})
	ds := newDeltaStream(1, base)
	live := map[uint32]bool{}
	h := base
	for k := 0; k < 120; k++ {
		d := ds.next()
		if len(d.Inserts) != 2 || (k > 0 && len(d.Deletes) != 1) || (k == 0 && len(d.Deletes) != 0) {
			t.Fatalf("delta %d: %d inserts, %d deletes", k, len(d.Inserts), len(d.Deletes))
		}
		for _, e := range d.Deletes {
			if !live[e] {
				t.Fatalf("delta %d deletes hyperedge %d, which the stream did not insert or already deleted", k, e)
			}
			delete(live, e)
		}
		for i, vs := range d.Inserts {
			if len(vs) < 3 || len(vs) > 4 {
				t.Fatalf("delta %d inserts %d vertices", k, len(vs))
			}
			live[uint32(h.NumEdges()+i)] = true
		}
		next, err := delta.Apply(h, d)
		if err != nil {
			t.Fatalf("delta %d does not apply: %v", k, err)
		}
		h = next
	}
	// The independent rebuild equals the chain of Apply calls.
	if !reflect.DeepEqual(ds.rebuilt().EdgeSlices(), h.EdgeSlices()) {
		t.Error("rebuilt() differs from replaying the chain with delta.Apply")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	tr.begin(0, true)
	tr.add("shard", at(100), at(400)) // children first: handlers return before the client does
	tr.add("shard", at(200), at(600)) // overlaps the first
	tr.add("router", at(50), at(700))
	tr.add("client", at(0), at(1000))
	tr.begin(1, false)
	tr.add("client", at(2000), at(3000)) // recording off: dropped
	st := tr.selfTimes()
	want := map[string]float64{"client": 0.35, "router": 0.15, "shard": 0.7}
	for name, ms := range want {
		if got := st[name].self; len(got) != 1 || math.Abs(got[0]-ms) > 1e-9 {
			t.Errorf("self time of %s = %v, want [%v]", name, got, ms)
		}
	}
	if got := st["router"].total; len(got) != 1 || math.Abs(got[0]-0.65) > 1e-9 {
		t.Errorf("total time of router = %v, want [0.65]", got)
	}
	for i, s := range tr.spans {
		wantParent := map[string]string{"shard": "router", "router": "client"}[s.Name]
		if wantParent == "" {
			if s.Parent != -1 {
				t.Errorf("span %d (%s) has parent %d, want none", i, s.Name, s.Parent)
			}
		} else if s.Parent < 0 || tr.spans[s.Parent].Name != wantParent {
			t.Errorf("span %d (%s) has parent %d, want a %s", i, s.Name, s.Parent, wantParent)
		}
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables the
// program prints from equal: names, order and units.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bf struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []def
	for _, w := range workloads {
		names = append(names, def{Name: w.name})
	}
	if !reflect.DeepEqual(bf.Workloads, names) {
		t.Errorf("workloads: file has %v, table has %v", bf.Workloads, names)
	}
	defs := func(ms []metricDef) []def {
		out := make([]def, len(ms))
		for i, m := range ms {
			out[i] = def{m.name, m.unit}
		}
		return out
	}
	if !reflect.DeepEqual(bf.EndToEnd, defs(endToEnd)) {
		t.Errorf("end_to_end: file has %v, table has %v", bf.EndToEnd, defs(endToEnd))
	}
	if !reflect.DeepEqual(bf.PerLayer, defs(perLayer)) {
		t.Errorf("per_layer: file has %v, table has %v", bf.PerLayer, defs(perLayer))
	}
}
