// Package loadgen is the sustained-traffic harness behind cmd/hyperload
// and the soak tests: an open-loop load generator for a hyperlined
// server. Arrivals are scheduled at a fixed rate independent of response
// times (the open-loop discipline saturation benchmarks need — a closed
// loop self-throttles exactly when the server degrades, hiding the
// degradation), each request drawn from a configurable mix of sweep,
// measure, upload, and ingest traffic. The report carries client-side
// ground truth the server's /metrics must reconcile with: per-status-code
// counts, latency quantiles of successful requests, shed rate, and a
// first-seen consistency map of response shapes per (version, kind, s)
// so any run-internal divergence (a stale cache entry, a mixed-version
// batch) surfaces as a mismatch count. Keys are version-prefixed
// because ingest traffic legitimately changes answers: two answers for
// one question must agree only when pinned to the same dataset version.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mix weighs the traffic classes; weights are relative (normalized over
// their sum) and a zero weight disables the class.
type Mix struct {
	// Sweep is a multi-s projection query: POST /v2/query with an
	// s-range and no measure.
	Sweep float64
	// Measure is a single-s measure query: POST /v2/query naming a
	// measure.
	Measure float64
	// Upload re-PUTs the dataset body, bumping its version and
	// invalidating both cache layers — the churn half of a soak.
	Upload float64
	// Ingest POSTs a small seeded insert-only delta to /v2/ingest,
	// bumping the version while the server migrates or patches its
	// caches — the streaming half of a soak. Deltas are valid by
	// construction against any base: each draws its vertex IDs below
	// its own incidence count, which the growth bound always admits.
	Ingest float64
}

// DefaultMix is mostly reads with a trickle of churn.
var DefaultMix = Mix{Sweep: 8, Measure: 3, Upload: 1}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Targets optionally lists several bases (replicas, or routers in
	// front of them) to spread arrivals over round-robin. The first-seen
	// consistency map is shared across targets, so a divergent answer
	// *between* nodes counts as a mismatch exactly like one within a
	// node — the cross-replica consistency check of a multi-node run.
	// Empty = single-target mode against BaseURL.
	Targets []string
	// Dataset is the registered dataset name queries target.
	Dataset string
	// UploadBody is the adjacency-format dataset payload for upload
	// traffic (and for Prime). Upload traffic is disabled when empty.
	UploadBody []byte

	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Rate is the open-loop arrival rate in requests/second.
	Rate float64
	// MaxOutstanding caps client-side in-flight requests; arrivals past
	// it are counted as Dropped rather than queued (the generator must
	// not itself become a queue). 0 = 512.
	MaxOutstanding int

	// SMax bounds the s values drawn for sweep and measure traffic
	// (ranges within [1, SMax]). 0 = 4.
	SMax int
	// Measure names the measure for measure traffic. "" = "components".
	Measure string
	// Mix weighs the traffic classes; zero value = DefaultMix.
	Mix Mix
	// Priority is the v2 priority field for query traffic ("" = server
	// default, i.e. interactive).
	Priority string
	// Timeout bounds each request. 0 = 30s.
	Timeout time.Duration
	// Seed makes the arrival schedule and draw sequence reproducible.
	Seed int64
	// Client overrides the HTTP client (its Timeout is ignored in favor
	// of Config.Timeout).
	Client *http.Client
}

// Observation is the first-seen response shape for one traffic key.
type Observation struct {
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	Value string `json:"value,omitempty"`
}

// Quantiles are latency quantiles in nanoseconds over the successful
// (HTTP 200, i.e. admitted and answered) requests.
type Quantiles struct {
	P50 int64 `json:"p50_ns"`
	P90 int64 `json:"p90_ns"`
	P99 int64 `json:"p99_ns"`
	Max int64 `json:"max_ns"`
	N   int64 `json:"n"`
}

// Report is the outcome of one load run. Counts satisfy
// Offered == Dropped + Sent and Sent == Σ StatusCounts + TransportErrors.
type Report struct {
	// Offered counts scheduled arrivals; Dropped the ones skipped
	// because MaxOutstanding was reached; Sent the requests issued.
	Offered int64 `json:"offered"`
	Dropped int64 `json:"dropped"`
	Sent    int64 `json:"sent"`
	// StatusCounts is responses by HTTP status code.
	StatusCounts map[int]int64 `json:"status_counts"`
	// TransportErrors counts requests that died below HTTP (dial,
	// reset, client-side timeout).
	TransportErrors int64 `json:"transport_errors"`
	// Shed is StatusCounts[429], broken out because it is the headline
	// number of a saturation run.
	Shed int64 `json:"shed"`
	// Mismatches counts responses whose shape diverged from the
	// first-seen Observation for the same key — any nonzero value means
	// the server returned two different answers for one question at one
	// dataset version.
	Mismatches int64 `json:"mismatches"`
	// Ingests counts the delta requests sent; IngestsApplied the ones
	// every owner accepted (HTTP 200).
	Ingests        int64 `json:"ingests"`
	IngestsApplied int64 `json:"ingests_applied"`
	// Observed maps version-prefixed traffic keys ("v3/line/s=2",
	// "v3/measure/components/s=3") to their first-seen response shape,
	// for comparison against an uncached baseline. Responses that do
	// not name a single version (a router merge flagged version_mixed)
	// are not recorded — they pin no version to be consistent with.
	Observed map[string]Observation `json:"observed"`
	// Latency quantifies the successful requests.
	Latency Quantiles `json:"latency"`
	// Elapsed is the wall time from first arrival to last drained
	// response.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ShedRate is the fraction of sent requests answered 429.
func (r *Report) ShedRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Sent)
}

// runState is the mutable half of a run, shared by request goroutines.
type runState struct {
	mu        sync.Mutex
	rep       *Report
	latencies []int64
}

func (st *runState) recordStatus(code int, d time.Duration) {
	st.mu.Lock()
	st.rep.StatusCounts[code]++
	if code == http.StatusOK {
		st.latencies = append(st.latencies, int64(d))
	}
	st.mu.Unlock()
}

// observe folds one response shape into the consistency map.
func (st *runState) observe(key string, obs Observation) {
	st.mu.Lock()
	first, seen := st.rep.Observed[key]
	if !seen {
		st.rep.Observed[key] = obs
	} else if first != obs {
		st.rep.Mismatches++
	}
	st.mu.Unlock()
}

// Prime uploads cfg.UploadBody as the target dataset — to every target
// in multi-node mode, so each node can serve it — letting a run start
// against fresh servers.
func Prime(ctx context.Context, cfg Config) error {
	if len(cfg.UploadBody) == 0 {
		return errors.New("loadgen: Prime needs an UploadBody")
	}
	client := cfg.client()
	bases := cfg.Targets
	if len(bases) == 0 {
		bases = []string{cfg.BaseURL}
	}
	for _, base := range bases {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			strings.TrimRight(base, "/")+"/v1/datasets/"+cfg.Dataset+"?format=adj", bytes.NewReader(cfg.UploadBody))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: prime upload to %s: status %d: %s", base, resp.StatusCode, body)
		}
	}
	return nil
}

func (cfg *Config) client() *http.Client {
	if cfg.Client != nil {
		return cfg.Client
	}
	return &http.Client{}
}

// withDefaults resolves the zero values.
func (cfg Config) withDefaults() (Config, error) {
	for i, t := range cfg.Targets {
		cfg.Targets[i] = strings.TrimRight(t, "/")
	}
	if cfg.BaseURL == "" && len(cfg.Targets) > 0 {
		cfg.BaseURL = cfg.Targets[0]
	}
	if cfg.BaseURL == "" || cfg.Dataset == "" {
		return cfg, errors.New("loadgen: BaseURL (or Targets) and Dataset are required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.Rate <= 0 {
		return cfg, errors.New("loadgen: Rate must be > 0")
	}
	if cfg.Duration <= 0 {
		return cfg, errors.New("loadgen: Duration must be > 0")
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 512
	}
	if cfg.SMax <= 0 {
		cfg.SMax = 4
	}
	if cfg.Measure == "" {
		cfg.Measure = "components"
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix
	}
	if len(cfg.UploadBody) == 0 {
		cfg.Mix.Upload = 0
	}
	if cfg.Mix.Sweep+cfg.Mix.Measure+cfg.Mix.Upload+cfg.Mix.Ingest <= 0 {
		return cfg, errors.New("loadgen: the traffic mix has no positive weight")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	return cfg, nil
}

// Run generates open-loop load until cfg.Duration elapses (or ctx is
// cancelled, which stops scheduling and drains), then waits for every
// in-flight request and returns the report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	client := cfg.client()
	st := &runState{rep: &Report{
		StatusCounts: make(map[int]int64),
		Observed:     make(map[string]Observation),
	}}

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()

	sem := make(chan struct{}, cfg.MaxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()

arrivals:
	for {
		select {
		case <-ctx.Done():
			break arrivals
		case <-deadline.C:
			break arrivals
		case <-ticker.C:
			st.rep.Offered++
			select {
			case sem <- struct{}{}:
			default:
				// Open loop: an arrival the client cannot carry is
				// dropped, not deferred — deferring would turn the
				// generator into the very queue we are measuring.
				st.rep.Dropped++
				continue
			}
			st.rep.Sent++
			// Round-robin the target on the scheduling goroutine so the
			// (arrival, target) pairing is reproducible under Seed.
			base := cfg.BaseURL
			if len(cfg.Targets) > 0 {
				base = cfg.Targets[(st.rep.Sent-1)%int64(len(cfg.Targets))]
			}
			kind, body, key := cfg.draw(rng)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				cfg.issue(client, st, base, kind, body, key)
			}()
		}
	}
	wg.Wait()
	st.rep.Elapsed = time.Since(start)
	st.rep.Shed = st.rep.StatusCounts[http.StatusTooManyRequests]
	st.rep.Latency = quantiles(st.latencies)
	return st.rep, nil
}

// reqKind tags one drawn request.
type reqKind int

const (
	reqSweep reqKind = iota
	reqMeasure
	reqUpload
	reqIngest
)

// draw picks the next request from the mix. Drawing happens on the
// scheduling goroutine so the sequence is reproducible under Seed.
func (cfg *Config) draw(rng *rand.Rand) (reqKind, []byte, string) {
	total := cfg.Mix.Sweep + cfg.Mix.Measure + cfg.Mix.Upload + cfg.Mix.Ingest
	x := rng.Float64() * total
	switch {
	case x < cfg.Mix.Sweep:
		lo := 1 + rng.Intn(cfg.SMax)
		hi := lo + rng.Intn(cfg.SMax-lo+1)
		body, _ := json.Marshal(map[string]any{
			"dataset": cfg.Dataset, "s": fmt.Sprintf("%d:%d", lo, hi), "priority": cfg.Priority,
		})
		return reqSweep, body, ""
	case x < cfg.Mix.Sweep+cfg.Mix.Measure:
		s := 1 + rng.Intn(cfg.SMax)
		body, _ := json.Marshal(map[string]any{
			"dataset": cfg.Dataset, "s": []int{s}, "measure": cfg.Measure, "priority": cfg.Priority,
		})
		return reqMeasure, body, fmt.Sprintf("measure/%s/s=%d", cfg.Measure, s)
	case x < cfg.Mix.Sweep+cfg.Mix.Measure+cfg.Mix.Upload:
		return reqUpload, cfg.UploadBody, ""
	default:
		return reqIngest, cfg.drawDelta(rng), ""
	}
}

// drawDelta builds one seeded insert-only /v2/ingest body: one to
// three new hyperedges of two to four vertices each. Every vertex ID
// is drawn below the delta's own incidence count, so the body is valid
// against any base hypergraph — the ingest growth bound admits IDs up
// to NumVertices + incidences − 1, and incidences > every drawn ID
// here even when the base is empty. Insert-only keeps the generator
// stateless: deletions would need the live edge count, which shifts
// under the very traffic being generated.
func (cfg *Config) drawDelta(rng *rand.Rand) []byte {
	n := 1 + rng.Intn(3)
	sizes := make([]int, n)
	incidences := 0
	for i := range sizes {
		sizes[i] = 2 + rng.Intn(3)
		incidences += sizes[i]
	}
	inserts := make([][]uint32, n)
	for i, sz := range sizes {
		seen := make(map[uint32]bool, sz)
		for len(seen) < sz {
			seen[uint32(rng.Intn(incidences))] = true
		}
		edge := make([]uint32, 0, sz)
		for v := range seen {
			edge = append(edge, v)
		}
		inserts[i] = edge
	}
	body, _ := json.Marshal(map[string]any{"dataset": cfg.Dataset, "inserts": inserts})
	return body
}

// v2Entry is the slice of the /v2/query response the generator checks.
type v2Entry struct {
	S     int             `json:"s"`
	Error string          `json:"error,omitempty"`
	Nodes int             `json:"nodes"`
	Edges int             `json:"edges"`
	Value json.RawMessage `json:"value,omitempty"`
}

// issue sends one request to base and records its outcome.
func (cfg *Config) issue(client *http.Client, st *runState, base string, kind reqKind, body []byte, key string) {
	rctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	var req *http.Request
	var err error
	switch kind {
	case reqUpload:
		req, err = http.NewRequestWithContext(rctx, http.MethodPut,
			base+"/v1/datasets/"+cfg.Dataset+"?format=adj", bytes.NewReader(body))
	case reqIngest:
		req, err = http.NewRequestWithContext(rctx, http.MethodPost,
			base+"/v2/ingest", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	default:
		req, err = http.NewRequestWithContext(rctx, http.MethodPost,
			base+"/v2/query", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		st.mu.Lock()
		st.rep.TransportErrors++
		st.mu.Unlock()
		return
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		st.mu.Lock()
		st.rep.TransportErrors++
		st.mu.Unlock()
		return
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	st.recordStatus(resp.StatusCode, time.Since(t0))
	if kind == reqIngest {
		st.mu.Lock()
		st.rep.Ingests++
		if resp.StatusCode == http.StatusOK {
			st.rep.IngestsApplied++
		}
		st.mu.Unlock()
		return
	}
	if kind == reqUpload || resp.StatusCode != http.StatusOK {
		return
	}
	var out struct {
		Version      uint64    `json:"version"`
		VersionMixed bool      `json:"version_mixed"`
		Results      []v2Entry `json:"results"`
	}
	if json.Unmarshal(data, &out) != nil {
		return
	}
	// A router merge that spanned two dataset versions pins no single
	// version — its entries answer no one consistent question, so they
	// are not folded into the consistency map.
	if out.VersionMixed {
		return
	}
	for _, e := range out.Results {
		if e.Error != "" {
			continue
		}
		obs := Observation{Nodes: e.Nodes, Edges: e.Edges, Value: string(e.Value)}
		k := key
		if kind == reqSweep {
			k = fmt.Sprintf("line/s=%d", e.S)
		}
		st.observe(fmt.Sprintf("v%d/%s", out.Version, k), obs)
	}
}

// quantiles computes the report quantiles from raw samples.
func quantiles(samples []int64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return Quantiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: samples[len(samples)-1],
		N:   int64(len(samples)),
	}
}

// BenchResult / BenchReport are the report hyperload -o writes: one
// row per latency quantile (ns/op) and per counter (the count as
// ns_per_op), the shape CI's smoke steps read counters from.
type BenchResult struct {
	Name    string  `json:"name"`
	Runs    int     `json:"runs"`
	Iters   int64   `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

type BenchReport struct {
	Label      string        `json:"label,omitempty"`
	Date       string        `json:"date"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// BenchJSON renders the report as a BenchReport: latency quantiles
// as ns/op entries (iters = sample count) plus the headline saturation
// counts encoded as ops (offered/sent/shed/dropped, ns_per_op = count).
func (r *Report) BenchJSON(label string, now time.Time) BenchReport {
	n := r.Latency.N
	mk := func(name string, ns int64) BenchResult {
		return BenchResult{Name: name, Runs: 1, Iters: n, NsPerOp: float64(ns)}
	}
	return BenchReport{
		Label: label,
		Date:  now.UTC().Format(time.RFC3339),
		Benchmarks: []BenchResult{
			mk("HyperloadLatencyP50", r.Latency.P50),
			mk("HyperloadLatencyP90", r.Latency.P90),
			mk("HyperloadLatencyP99", r.Latency.P99),
			mk("HyperloadLatencyMax", r.Latency.Max),
			{Name: "HyperloadOffered", Runs: 1, Iters: 1, NsPerOp: float64(r.Offered)},
			{Name: "HyperloadSent", Runs: 1, Iters: 1, NsPerOp: float64(r.Sent)},
			{Name: "HyperloadShed", Runs: 1, Iters: 1, NsPerOp: float64(r.Shed)},
			{Name: "HyperloadDropped", Runs: 1, Iters: 1, NsPerOp: float64(r.Dropped)},
			{Name: "HyperloadIngestsApplied", Runs: 1, Iters: 1, NsPerOp: float64(r.IngestsApplied)},
		},
	}
}

// Summary renders the human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d (dropped %d, sent %d) in %s — %.1f req/s sent\n",
		r.Offered, r.Dropped, r.Sent, r.Elapsed.Round(time.Millisecond),
		float64(r.Sent)/r.Elapsed.Seconds())
	codes := make([]int, 0, len(r.StatusCounts))
	for c := range r.StatusCounts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "  status %d: %d\n", c, r.StatusCounts[c])
	}
	if r.TransportErrors > 0 {
		fmt.Fprintf(&b, "  transport errors: %d\n", r.TransportErrors)
	}
	fmt.Fprintf(&b, "shed rate %.1f%%, mismatches %d\n", 100*r.ShedRate(), r.Mismatches)
	if r.Ingests > 0 {
		fmt.Fprintf(&b, "ingests %d (applied %d)\n", r.Ingests, r.IngestsApplied)
	}
	q := r.Latency
	fmt.Fprintf(&b, "latency (n=%d ok): p50 %s  p90 %s  p99 %s  max %s\n",
		q.N, time.Duration(q.P50).Round(time.Microsecond), time.Duration(q.P90).Round(time.Microsecond),
		time.Duration(q.P99).Round(time.Microsecond), time.Duration(q.Max).Round(time.Microsecond))
	return b.String()
}

// FetchMetrics scrapes baseURL/metrics and parses it into a flat
// name{labels} → value map — the reconciliation hook for comparing
// server counters against a Report's client-side counts.
func FetchMetrics(ctx context.Context, client *http.Client, baseURL string) (map[string]float64, error) {
	if client == nil {
		client = &http.Client{}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(baseURL, "/")+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /metrics: status %d", resp.StatusCode)
	}
	return ParseMetrics(string(data))
}

// ParseMetrics parses a Prometheus text exposition into a flat
// name{labels} → value map (comment lines skipped).
func ParseMetrics(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("loadgen: bad metric line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			return nil, fmt.Errorf("loadgen: bad metric value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}
