package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Sub-request outcome labels for hyperrouter_subrequests_total. Every
// replica-bound request (shard attempt, retry, upload fan-out) lands in
// exactly one bucket, so the sum reconciles against the replicas' own
// hyperline_http_responses_total — minus outcome="error", which never
// produced a replica response. A shard attempt cut short by the
// router's own deadline lands in none.
const (
	outcomeOK       = "ok"       // 2xx
	outcomeShed     = "shed"     // 429
	outcomeDeadline = "deadline" // 504
	outcomeNotFound = "notfound" // 404
	outcomeClient   = "client"   // other 4xx
	outcomeUpstream = "upstream" // other 5xx
	outcomeError    = "error"    // transport failure, no response
)

// outcomeOf buckets a replica response status.
func outcomeOf(status int) string {
	switch {
	case status >= 200 && status < 300:
		return outcomeOK
	case status == http.StatusTooManyRequests:
		return outcomeShed
	case status == http.StatusGatewayTimeout:
		return outcomeDeadline
	case status == http.StatusNotFound:
		return outcomeNotFound
	case status >= 400 && status < 500:
		return outcomeClient
	default:
		return outcomeUpstream
	}
}

// attemptOutcome buckets one attempt, transport failures included.
func attemptOutcome(res attemptResult) string {
	if res.err != nil {
		return outcomeError
	}
	return outcomeOf(res.status)
}

// rmetrics is the router's counter set, exposed in Prometheus text
// exposition format 0.0.4 like the replicas' /metrics.
type rmetrics struct {
	mu          sync.Mutex
	responses   map[int]int64
	subrequests map[string]int64
	queries     int64
	shards      int64
	ingests     int64
	retries     int64
	sheds       int64
}

func (m *rmetrics) countQuery(shards int) {
	m.mu.Lock()
	m.queries++
	m.shards += int64(shards)
	m.mu.Unlock()
}

func (m *rmetrics) countSubrequest(outcome string) {
	m.mu.Lock()
	if m.subrequests == nil {
		m.subrequests = make(map[string]int64)
	}
	m.subrequests[outcome]++
	m.mu.Unlock()
}

func (m *rmetrics) countIngest() { m.mu.Lock(); m.ingests++; m.mu.Unlock() }
func (m *rmetrics) countRetry()  { m.mu.Lock(); m.retries++; m.mu.Unlock() }
func (m *rmetrics) countShed()   { m.mu.Lock(); m.sheds++; m.mu.Unlock() }

func (m *rmetrics) countResponse(code int) {
	m.mu.Lock()
	if m.responses == nil {
		m.responses = make(map[int]int64)
	}
	m.responses[code]++
	m.mu.Unlock()
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the route table with the response-code counter.
// /metrics scrapes, /healthz probes, and /v1/replicas control traffic
// (replica heartbeats) are not counted, so hyperrouter_requests_total
// reconciles exactly with the requests a load generator sent.
func (m *rmetrics) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics", "/healthz", "/v1/replicas":
			h.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		m.countResponse(rec.code)
	})
}

// metricWriter accumulates one exposition document.
type metricWriter struct {
	b strings.Builder
}

func (w *metricWriter) header(name, help, typ string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (w *metricWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&w.b, "%s%s %g\n", name, labels, v)
}

// handleMetrics renders the router's exposition: fan-out, retry, and
// shed counters, per-outcome sub-request counts, response codes,
// and replica health gauges.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := &rt.metrics
	mw := &metricWriter{}

	m.mu.Lock()
	mw.header("hyperrouter_queries_total", "fanned-out /v2/query requests", "counter")
	mw.value("hyperrouter_queries_total", "", float64(m.queries))
	mw.header("hyperrouter_fanout_shards_total", "shards dispatched across all queries", "counter")
	mw.value("hyperrouter_fanout_shards_total", "", float64(m.shards))
	mw.header("hyperrouter_ingests_total", "fanned-out /v2/ingest requests", "counter")
	mw.value("hyperrouter_ingests_total", "", float64(m.ingests))
	mw.header("hyperrouter_retries_total", "failover retries to another owner", "counter")
	mw.value("hyperrouter_retries_total", "", float64(m.retries))
	mw.header("hyperrouter_shed_total", "router-level 429 answers (all owners shed)", "counter")
	mw.value("hyperrouter_shed_total", "", float64(m.sheds))

	mw.header("hyperrouter_subrequests_total", "replica-bound sub-requests by outcome", "counter")
	outs := make([]string, 0, len(m.subrequests))
	for o := range m.subrequests {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	for _, o := range outs {
		mw.value("hyperrouter_subrequests_total", fmt.Sprintf("outcome=%q", o), float64(m.subrequests[o]))
	}

	mw.header("hyperrouter_requests_total", "client-facing responses by status code", "counter")
	codes := make([]int, 0, len(m.responses))
	for c := range m.responses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		mw.value("hyperrouter_requests_total", fmt.Sprintf("code=%q", fmt.Sprint(c)), float64(m.responses[c]))
	}
	m.mu.Unlock()

	healthy, unhealthy := 0, 0
	for _, st := range rt.Replicas() {
		if st.Healthy {
			healthy++
		} else {
			unhealthy++
		}
	}
	mw.header("hyperrouter_replicas", "known replicas by health state", "gauge")
	mw.value("hyperrouter_replicas", `state="healthy"`, float64(healthy))
	mw.value("hyperrouter_replicas", `state="unhealthy"`, float64(unhealthy))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(mw.b.String()))
}
