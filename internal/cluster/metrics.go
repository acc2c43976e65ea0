package cluster

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"

	"hyperline/internal/obs"
)

// Sub-request outcome labels for hyperrouter_subrequests_total. Every
// replica-bound request (shard attempt, retry, and the upload, ingest,
// dataset-list and change-feed fan-outs) lands in exactly one bucket,
// so the sum reconciles against the replicas' own
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
	responses obs.Responses

	mu          sync.Mutex
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

// handleMetrics renders the router's exposition: fan-out, retry, and
// shed counters, per-outcome sub-request counts, response codes,
// and replica health gauges.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := &rt.metrics
	d := &obs.Doc{}

	m.mu.Lock()
	d.Counter("hyperrouter_queries_total", "fanned-out /v2/query requests", float64(m.queries))
	d.Counter("hyperrouter_fanout_shards_total", "shards dispatched across all queries", float64(m.shards))
	d.Counter("hyperrouter_ingests_total", "fanned-out /v2/ingest requests", float64(m.ingests))
	d.Counter("hyperrouter_retries_total", "failover retries to another owner", float64(m.retries))
	d.Counter("hyperrouter_shed_total", "router-level 429 answers (all owners shed)", float64(m.sheds))

	d.Family("hyperrouter_subrequests_total", "replica-bound sub-requests by outcome", "counter")
	for _, o := range slices.Sorted(maps.Keys(m.subrequests)) {
		d.Sample("hyperrouter_subrequests_total", fmt.Sprintf("outcome=%q", o), float64(m.subrequests[o]))
	}
	m.mu.Unlock()

	m.responses.Write(d, "hyperrouter_requests_total", "client-facing responses by status code")

	healthy, unhealthy := 0, 0
	for _, st := range rt.Replicas() {
		if st.Healthy {
			healthy++
		} else {
			unhealthy++
		}
	}
	d.Family("hyperrouter_replicas", "known replicas by health state", "gauge")
	d.Sample("hyperrouter_replicas", `state="healthy"`, float64(healthy))
	d.Sample("hyperrouter_replicas", `state="unhealthy"`, float64(unhealthy))

	d.Serve(w)
}
