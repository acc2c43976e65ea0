package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/jsonsplice"
)

// Config parameterizes a Router.
type Config struct {
	// Replicas seeds the member list with static replica base URLs;
	// replicas may also self-register via POST /v1/replicas.
	Replicas []string
	// Replication is how many replicas own each dataset (clamped to the
	// cluster size at placement time). Default 2.
	Replication int
	// HealthInterval is the replica health-probe period for Run.
	// Default 2s.
	HealthInterval time.Duration
	// RequestTimeout bounds every proxied query that does not carry its
	// own shorter timeout_ms. 0 = unbounded.
	RequestTimeout time.Duration
	// Client issues replica sub-requests. Default: a dedicated client
	// with no global timeout (sub-requests are bounded per-context).
	Client *http.Client
}

// replica is one hyperlined member as the router sees it.
type replica struct {
	url      string
	static   bool // from -replicas, never expired
	healthy  bool
	fails    int // consecutive probe/transport failures
	lastSeen time.Time
}

// ReplicaStatus is the externally visible replica state.
type ReplicaStatus struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Static   bool   `json:"static"`
	Fails    int    `json:"consecutive_failures,omitempty"`
	LastSeen string `json:"last_seen,omitempty"`
}

// Router is the stateless scatter-gather tier: it owns the replica map
// and the placement ring, but no dataset bytes and no caches — replica
// answers pass through verbatim, so the cache/spill tiers stay where
// the data is and the router can be replicated freely.
type Router struct {
	cfg    Config
	client *http.Client

	mu       sync.Mutex
	replicas map[string]*replica
	ring     *Ring
	// writeLocks serializes mutating fan-outs (upload, ingest) per
	// dataset: two concurrent deltas applied in different orders on
	// different owners would diverge their versions permanently.
	writeLocks map[string]*sync.Mutex

	metrics rmetrics
}

// NewRouter builds a router over the statically configured replicas
// (all presumed healthy until probed).
func NewRouter(cfg Config) *Router {
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	rt := &Router{
		cfg:      cfg,
		client:   cfg.Client,
		replicas: make(map[string]*replica),
	}
	if rt.client == nil {
		// One idle connection kept per concurrent shard, not the default
		// two per replica: past two, every query would dial and discard.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = tr.MaxIdleConns
		rt.client = &http.Client{Transport: tr}
	}
	for _, u := range cfg.Replicas {
		u = strings.TrimRight(u, "/")
		if u == "" {
			continue
		}
		rt.replicas[u] = &replica{url: u, static: true, healthy: true}
	}
	rt.rebuildRingLocked()
	return rt
}

// rebuildRingLocked recomputes placement after a membership change.
// Placement ranges over *all* members, healthy or not: a blip must not
// migrate ownership (and the data) — health only filters who is asked.
func (rt *Router) rebuildRingLocked() {
	nodes := make([]string, 0, len(rt.replicas))
	for u := range rt.replicas {
		nodes = append(nodes, u)
	}
	rt.ring = NewRing(nodes)
}

// owners returns the dataset's owner set in ring order, and the healthy
// subset in the same order.
func (rt *Router) owners(dataset string) (all, healthy []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	all = rt.ring.Owners(dataset, rt.cfg.Replication)
	for _, u := range all {
		if rep, ok := rt.replicas[u]; ok && rep.healthy {
			healthy = append(healthy, u)
		}
	}
	return all, healthy
}

// markFailure records a transport-level failure against a replica and
// immediately stops routing to it; the health loop readmits it.
func (rt *Router) markFailure(u string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rep, ok := rt.replicas[u]; ok {
		rep.fails++
		rep.healthy = false
	}
}

// markSuccess records a healthy interaction with a replica.
func (rt *Router) markSuccess(u string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rep, ok := rt.replicas[u]; ok {
		rep.fails = 0
		rep.healthy = true
		rep.lastSeen = time.Now()
	}
}

// lockDataset takes the dataset's write lock, creating it on first
// use, and returns the unlock. Lock objects are never removed: the map
// grows with the distinct datasets ever written through this router,
// which is bounded by the same cardinality the replicas hold in RAM.
func (rt *Router) lockDataset(name string) func() {
	rt.mu.Lock()
	if rt.writeLocks == nil {
		rt.writeLocks = make(map[string]*sync.Mutex)
	}
	l, ok := rt.writeLocks[name]
	if !ok {
		l = &sync.Mutex{}
		rt.writeLocks[name] = l
	}
	rt.mu.Unlock()
	l.Lock()
	return l.Unlock
}

// register adds (or refreshes) a self-registered replica.
func (rt *Router) register(u string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok := rt.replicas[u]
	if !ok {
		rep = &replica{url: u}
		rt.replicas[u] = rep
		rt.rebuildRingLocked()
	}
	rep.healthy = true
	rep.fails = 0
	rep.lastSeen = time.Now()
}

// Replicas snapshots the member list, sorted by URL.
func (rt *Router) Replicas() []ReplicaStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		st := ReplicaStatus{URL: rep.url, Healthy: rep.healthy, Static: rep.static, Fails: rep.fails}
		if !rep.lastSeen.IsZero() {
			st.LastSeen = rep.lastSeen.UTC().Format(time.RFC3339)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// CheckHealth probes every replica's /healthz once, in parallel.
func (rt *Router) CheckHealth(ctx context.Context) {
	timeout := rt.cfg.HealthInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, st := range rt.Replicas() {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, u+"/healthz", nil)
			if err != nil {
				rt.markFailure(u)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.markFailure(u)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				rt.markSuccess(u)
			} else {
				rt.markFailure(u)
			}
		}(st.URL)
	}
	wg.Wait()
}

// Run drives the health loop until ctx is done.
func (rt *Router) Run(ctx context.Context) {
	rt.CheckHealth(ctx)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckHealth(ctx)
		}
	}
}

// Handler returns the router's HTTP surface. It intentionally mirrors
// the slice of the hyperlined API a client needs — health, dataset
// upload/list, /v2/query, /v2/ingest, and the change feed — so
// hyperload (and curl scripts) work against a router or a single
// replica interchangeably.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "replicas": len(rt.Replicas())})
	})
	mux.HandleFunc("GET /v1/replicas", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.Replicas())
	})
	mux.HandleFunc("POST /v1/replicas", rt.handleRegister)
	mux.HandleFunc("GET /v1/datasets", rt.handleListDatasets)
	mux.HandleFunc("PUT /v1/datasets/{name}", rt.handleUpload)
	mux.HandleFunc("POST /v2/query", rt.handleQuery)
	mux.HandleFunc("POST /v2/ingest", rt.handleIngest)
	mux.HandleFunc("GET /v2/datasets/{name}/changes", rt.handleChanges)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt.metrics.instrument(mux)
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad register body: %w", err))
		return
	}
	u, err := url.Parse(body.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad replica url %q (want absolute http/https)", body.URL))
		return
	}
	rt.register(strings.TrimRight(body.URL, "/"))
	writeJSON(w, http.StatusOK, rt.Replicas())
}

// handleListDatasets merges the dataset lists of all healthy replicas
// into a name -> replica-set view.
func (rt *Router) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name     string   `json:"name"`
		Replicas []string `json:"replicas"`
	}
	merged := map[string][]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, st := range rt.Replicas() {
		if !st.Healthy {
			continue
		}
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u+"/v1/datasets", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.markFailure(u)
				return
			}
			defer resp.Body.Close()
			var list []struct {
				Name string `json:"name"`
			}
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&list) != nil {
				return
			}
			mu.Lock()
			for _, d := range list {
				merged[d.Name] = append(merged[d.Name], u)
			}
			mu.Unlock()
		}(st.URL)
	}
	wg.Wait()
	out := make([]entry, 0, len(merged))
	for name, reps := range merged {
		sort.Strings(reps)
		out = append(out, entry{Name: name, Replicas: reps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// handleUpload replicates a dataset upload to every owner. Placement
// ignores health (a blip must not migrate data), so down owners are
// attempted and reported; at least one accepting owner makes the
// dataset queryable and keeps the upload a success.
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<32))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: reading upload: %w", err))
		return
	}
	owners, _ := rt.owners(name)
	if len(owners) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no replicas registered"))
		return
	}
	unlock := rt.lockDataset(name)
	defer unlock()
	target := "/v1/datasets/" + url.PathEscape(name)
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	oks := make([]bool, len(owners))
	var wg sync.WaitGroup
	for i, u := range owners {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodPut, u+target, bytes.NewReader(body))
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.markFailure(u)
				rt.metrics.countSubrequest(outcomeError)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.markSuccess(u)
			rt.metrics.countSubrequest(outcomeOf(resp.StatusCode))
			oks[i] = resp.StatusCode == http.StatusOK
		}(i, u)
	}
	wg.Wait()
	replicated := 0
	for _, ok := range oks {
		if ok {
			replicated++
		}
	}
	if replicated == 0 {
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: no owner accepted dataset %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dataset": name, "replicated": replicated, "owners": len(owners)})
}

// handleIngest replicates a streaming delta to every owner of its
// dataset, serialized against other writes by the dataset's write
// lock (so concurrent deltas apply in the same order everywhere and
// the owners' version counters advance in lockstep). Upload tolerates
// partial success — any owner with the bytes keeps the data available
// — but a delta that misses an owner silently diverges that replica's
// answers for every later query, so ingest succeeds only when every
// owner applied it; per-owner outcomes are reported either way, and a
// unanimous 409 (stale base_version) passes through as a 409.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: reading ingest body: %w", err))
		return
	}
	var peek struct {
		Dataset string `json:"dataset"`
	}
	if json.Unmarshal(body, &peek) != nil || peek.Dataset == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: ingest body must be JSON with a \"dataset\""))
		return
	}
	owners, _ := rt.owners(peek.Dataset)
	if len(owners) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no replicas registered"))
		return
	}
	rt.metrics.countIngest()
	unlock := rt.lockDataset(peek.Dataset)
	defer unlock()

	type ownerOutcome struct {
		Replica string `json:"replica"`
		Status  int    `json:"status"`
		Version uint64 `json:"version,omitempty"`
		Error   string `json:"error,omitempty"`
	}
	outs := make([]ownerOutcome, len(owners))
	var wg sync.WaitGroup
	for i, u := range owners {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			outs[i] = ownerOutcome{Replica: u}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u+"/v2/ingest", bytes.NewReader(body))
			if err != nil {
				outs[i].Error = err.Error()
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.markFailure(u)
				rt.metrics.countSubrequest(outcomeError)
				outs[i].Error = err.Error()
				return
			}
			defer resp.Body.Close()
			rt.markSuccess(u)
			rt.metrics.countSubrequest(outcomeOf(resp.StatusCode))
			outs[i].Status = resp.StatusCode
			var parsed struct {
				Version uint64 `json:"version"`
				Error   string `json:"error"`
			}
			if json.NewDecoder(resp.Body).Decode(&parsed) == nil {
				outs[i].Version = parsed.Version
				outs[i].Error = parsed.Error
			}
		}(i, u)
	}
	wg.Wait()

	applied := 0
	all409 := true
	for _, oc := range outs {
		if oc.Status == http.StatusOK {
			applied++
		}
		if oc.Status != http.StatusConflict {
			all409 = false
		}
	}
	status := http.StatusBadGateway
	switch {
	case applied == len(owners):
		status = http.StatusOK
	case all409:
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]any{
		"dataset": peek.Dataset,
		"applied": applied,
		"owners":  len(owners),
		"results": outs,
	})
}

// handleChanges proxies the change feed to the dataset's first healthy
// owner: all owners see the same delta sequence (ingest fans out to
// every owner under the write lock), so any one owner's feed is the
// dataset's feed.
func (rt *Router) handleChanges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	_, healthy := rt.owners(name)
	if len(healthy) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no healthy replica owns dataset %q", name))
		return
	}
	u := healthy[0]
	target := u + "/v2/datasets/" + url.PathEscape(name) + "/changes"
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.markFailure(u)
		rt.metrics.countSubrequest(outcomeError)
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: replica %s: %w", u, err))
		return
	}
	defer resp.Body.Close()
	rt.markSuccess(u)
	rt.metrics.countSubrequest(outcomeOf(resp.StatusCode))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// shardOutcome is one shard's contribution to the merged response.
type shardOutcome struct {
	s       []int
	entries map[int]shardEntry // nil when the shard failed outright
	header  replicaHeader      // version and plan of a usable response
	status  int                // final shard status; 0 = transport failure
	errMsg  string
	shed    bool
	// retryAfter is the largest Retry-After seen from shedding owners.
	retryAfter int
	deadline   bool
}

// shardEntry is one replica entry, kept in the bytes the replica wrote.
type shardEntry struct {
	raw []byte
	ok  bool // the entry answered: it carries no "error"
}

// errorEntryJSON is a per-s error entry the router synthesises, with
// the replica's field order, so every merged entry starts with {"s":.
type errorEntryJSON struct {
	S      int    `json:"s"`
	Error  string `json:"error"`
	Cached bool   `json:"cached"`
}

// mergedHeadJSON is a merged /v2/query answer without its last field,
// "results". Version is omitted when the shards disagreed on it.
type mergedHeadJSON struct {
	Dataset      string          `json:"dataset"`
	Version      uint64          `json:"version,omitempty"`
	VersionMixed bool            `json:"version_mixed,omitempty"`
	Kind         string          `json:"kind"`
	Measure      string          `json:"measure,omitempty"`
	Plan         json.RawMessage `json:"plan,omitempty"`
	ElapsedMS    float64         `json:"elapsed_ms"`
}

// replicaHeader is what the merge reads of a replica /v2/query answer's
// head, the part before "results".
type replicaHeader struct {
	Version uint64          `json:"version"`
	Plan    json.RawMessage `json:"plan,omitempty"`
}

// maxQueryBytes caps POST /v2/query bodies, which the router buffers
// whole to re-shard; it matches the cap the replicas apply. It also
// caps POST /v1/replicas, which any host may send.
const maxQueryBytes = 1 << 20

// maxAnswerBytes caps a replica's answer to one sub-request, which the
// router buffers whole to merge. Any host may register as a replica, so
// an answer that declares or reaches more fails its shard unread.
const maxAnswerBytes = 1 << 30

// msDuration converts a client's timeout_ms to a Duration. It saturates
// at the largest Duration (about 292 years, no deadline in practice)
// where time.Duration(ms)*time.Millisecond would wrap negative.
func msDuration(ms int) time.Duration {
	if int64(ms) > math.MaxInt64/int64(time.Millisecond) {
		return math.MaxInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// handleQuery is the scatter-gather core: decode just enough of the
// body to shard it (everything else passes through verbatim), fan the
// distinct s values across the dataset's healthy owners, and merge the
// per-s entries back in ascending order. The router adds nothing to an
// answer and caches nothing from it.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var base map[string]json.RawMessage
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&base); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad /v2/query body: %w", err))
		return
	}
	// An absent or mistyped field leaves its zero value.
	var dataset, kind, measureName string
	var timeoutMS int
	json.Unmarshal(base["dataset"], &dataset)
	json.Unmarshal(base["kind"], &kind)
	json.Unmarshal(base["measure"], &measureName)
	json.Unmarshal(base["timeout_ms"], &timeoutMS)
	if dataset == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: \"dataset\" is required"))
		return
	}
	if kind == "" {
		kind = "line"
	}
	sweep, err := core.DecodeSValues(base["s"])
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, msDuration(timeoutMS))
		defer cancel()
	} else if rt.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.RequestTimeout)
		defer cancel()
	}
	// The forwarded timeout_ms is re-derived per attempt from the
	// remaining ctx budget — drop the client's absolute value.
	delete(base, "timeout_ms")

	_, owners := rt.owners(dataset)
	if len(owners) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no healthy replica owns dataset %q", dataset))
		return
	}

	// Shard the distinct s values by s mod |owners|: stable for a given
	// owner count, so repeat sweeps land each s on the same replica and
	// its caches stay hot.
	distinct := core.DistinctS(sweep)
	byOwner := make(map[int][]int)
	for _, sVal := range distinct { // DistinctS clamps every s to ≥ 1
		byOwner[sVal%len(owners)] = append(byOwner[sVal%len(owners)], sVal)
	}
	rt.metrics.countQuery(len(byOwner))

	outcomes := make([]shardOutcome, 0, len(byOwner))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for idx, sVals := range byOwner {
		// Rotate the owner list so this shard's primary is its assigned
		// owner and the others are its fallbacks.
		prefs := make([]string, 0, len(owners))
		for i := 0; i < len(owners); i++ {
			prefs = append(prefs, owners[(idx+i)%len(owners)])
		}
		wg.Add(1)
		go func(prefs []string, sVals []int) {
			defer wg.Done()
			oc := rt.runShard(ctx, prefs, sVals, base)
			mu.Lock()
			outcomes = append(outcomes, oc)
			mu.Unlock()
		}(prefs, sVals)
	}
	wg.Wait()

	rt.writeMerged(w, start, dataset, kind, measureName, distinct, outcomes)
}

// attemptResult is one replica attempt's raw outcome.
type attemptResult struct {
	replica    string
	status     int
	body       []byte
	index      string // the answer's jsonsplice.EntriesHeader
	overCap    bool   // the answer exceeds maxAnswerBytes and goes unused
	retryAfter int
	err        error
}

// runShard drives one shard to completion, trying its owners in
// preference order. Retryable failures (transport errors, 429 sheds,
// 404 from an owner that missed the upload) fail over to the next
// owner. Any other answer (200/400/500/502, or the replica's own 504) is
// final: a different replica computes the same answer, so retrying
// buys nothing. An attempt cut short by the request's own context is
// the router-side 504; it never reached a verdict, so it is not counted
// as a sub-request and not held against the replica.
func (rt *Router) runShard(ctx context.Context, prefs []string, sVals []int, base map[string]json.RawMessage) shardOutcome {
	oc := shardOutcome{s: sVals}
	for i, u := range prefs {
		if i > 0 {
			rt.metrics.countRetry()
		}
		res := rt.tryReplica(ctx, u, rt.shardPayload(ctx, base, sVals))
		if res.err != nil && ctx.Err() != nil {
			oc.deadline = true
			oc.status = http.StatusGatewayTimeout
			oc.errMsg = "deadline exceeded before a replica answered"
			return oc
		}
		rt.metrics.countSubrequest(attemptOutcome(res))
		if res.err == nil && res.status != http.StatusTooManyRequests && res.status != http.StatusNotFound {
			return rt.parseShardResponse(res, sVals)
		}
		// Retryable: remember the failure shape, try the next owner.
		if res.err != nil {
			rt.markFailure(u)
			oc.errMsg = fmt.Sprintf("replica %s: %v", u, res.err)
			continue
		}
		oc.status = res.status
		oc.errMsg = fmt.Sprintf("replica %s answered %d", u, res.status)
		if res.status == http.StatusTooManyRequests {
			oc.shed = true
			oc.retryAfter = max(oc.retryAfter, res.retryAfter)
		}
	}
	return oc
}

// shardPayload builds one sub-request body: the client's fields pass
// through verbatim except "s" (this shard's slice of the sweep) and
// "timeout_ms" (the *remaining* ctx budget at launch time, so the
// deadline travels with the work instead of resetting per hop).
func (rt *Router) shardPayload(ctx context.Context, base map[string]json.RawMessage, sVals []int) []byte {
	sub := make(map[string]json.RawMessage, len(base)+1)
	for k, v := range base {
		sub[k] = v
	}
	sraw, _ := json.Marshal(sVals)
	sub["s"] = sraw
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		// Reserve a merge margin so the replica's deadline fires first
		// and its 504 travels back before the router's own ctx expires
		// (which would abort the sub-request and lose the verdict). The
		// floor covers the replica's cancellation-poll overshoot plus a
		// round-trip; the ceiling keeps long budgets mostly usable.
		margin := min(max(remaining/10, 40*time.Millisecond), 500*time.Millisecond)
		ms := max((remaining - margin).Milliseconds(), 1)
		sub["timeout_ms"] = json.RawMessage(strconv.FormatInt(ms, 10))
	}
	payload, _ := json.Marshal(sub)
	return payload
}

// tryReplica issues one sub-request and reads the full answer into one
// buffer sized from its Content-Length.
func (rt *Router) tryReplica(ctx context.Context, u string, payload []byte) attemptResult {
	res := attemptResult{replica: u}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/v2/query", bytes.NewReader(payload))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status, res.index = resp.StatusCode, resp.Header.Get(jsonsplice.EntriesHeader)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			res.retryAfter = secs
		}
	}
	if res.overCap = resp.ContentLength > maxAnswerBytes; res.overCap {
		return res
	}
	// Content-Length is the replica's word, so the presize is capped; the
	// MinRead spare lets ReadFrom see EOF without growing the buffer.
	var body bytes.Buffer
	if n := resp.ContentLength; n >= 0 && n <= 64<<20 {
		body.Grow(int(n) + bytes.MinRead)
	}
	n, err := body.ReadFrom(io.LimitReader(resp.Body, maxAnswerBytes+1))
	if res.err = err; err == nil {
		res.body, res.overCap = body.Bytes(), n > maxAnswerBytes
	}
	return res
}

// parseShardResponse turns a usable replica answer into a shard outcome,
// indexing its entries by s. A 200/502 answer is cut by its jsonsplice
// index and only its head is decoded; as any host may register as a
// replica, jsonsplice.Valid still vouches for every byte of each entry,
// in one pass that accepts what encoding/json.Valid accepts. An answer
// over maxAnswerBytes, or one that fails these checks, fails its shard
// with a 502.
func (rt *Router) parseShardResponse(res attemptResult, sVals []int) shardOutcome {
	if res.overCap {
		return shardOutcome{s: sVals, status: http.StatusBadGateway,
			errMsg: fmt.Sprintf("replica %s: answer exceeds %d bytes", res.replica, maxAnswerBytes)}
	}
	oc := shardOutcome{s: sVals, status: res.status, deadline: res.status == http.StatusGatewayTimeout}
	if res.status != http.StatusOK && res.status != http.StatusBadGateway {
		// 4xx/504 bodies are {"error": ...} documents, not entry lists.
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(res.body, &e)
		oc.errMsg = e.Error
		if oc.errMsg == "" {
			oc.errMsg = fmt.Sprintf("replica %s answered %d", res.replica, res.status)
		}
		return oc
	}
	head, raws, ok := jsonsplice.Split(res.body, res.index)
	ok = ok && json.Unmarshal(append(head[:len(head):len(head)], '}'), &oc.header) == nil
	entries := make(map[int]shardEntry, len(raws))
	for _, raw := range raws {
		s, isErr, valid := entryPrefix(raw)
		if ok = ok && valid && jsonsplice.Valid(raw); !ok {
			break
		}
		entries[s] = shardEntry{raw: raw, ok: !isErr}
	}
	if !ok {
		oc.status = http.StatusBadGateway
		oc.errMsg = fmt.Sprintf("replica %s: answer does not match its entry index", res.replica)
		return oc
	}
	oc.entries = entries
	return oc
}

// entryPrefix reads an entry's s and whether it is an error entry from
// its {"s":N, or {"s":N,"error": prefix: the field order of every entry
// a replica or this router writes.
func entryPrefix(raw []byte) (s int, isErr, ok bool) {
	rest, ok := bytes.CutPrefix(raw, []byte(`{"s":`))
	i := 0
	for ; ok && i < len(rest) && i < 10 && '0' <= rest[i] && rest[i] <= '9'; i++ {
		s = s*10 + int(rest[i]-'0')
	}
	if !ok || i == 0 || i == len(rest) || rest[i] != ',' {
		return 0, false, false
	}
	return s, bytes.HasPrefix(rest[i+1:], []byte(`"error":`)), true
}

// writeMerged assembles the client-facing answer from the shard
// outcomes: entries in ascending s order (verbatim replica bytes;
// failed shards synthesize per-s error entries), and the replica
// status rules re-applied across the merged sweep — partial success is
// 200, an all-failed sweep reports the dominant failure class (shed
// beats deadline beats upstream), and Retry-After is the max across
// shedding owners. The plan is the one reported by the answering shard
// that holds the lowest s, as a single node reports the plan of its
// first projection — never a matter of which shard finished first.
func (rt *Router) writeMerged(w http.ResponseWriter, start time.Time, dataset, kind, measureName string, distinct []int, outcomes []shardOutcome) {
	entries := make(map[int]shardEntry, len(distinct))
	var plan json.RawMessage
	planS := 0
	// Version is reported only when every answering shard was pinned to
	// the same dataset version; a mixed sweep (a delta landed between
	// shard arrivals on different owners) is flagged instead, so
	// streaming clients know not to treat the merged entries as one
	// consistent snapshot.
	var version uint64
	versionSet, versionMixed := false, false
	anyOK := false
	allSameStatus := 0
	sameStatus := true
	var shed, deadline bool
	retryAfter := 0
	for i, oc := range outcomes {
		if i == 0 {
			allSameStatus = oc.status
		} else if oc.status != allSameStatus {
			sameStatus = false
		}
		if oc.shed {
			shed = true
			if oc.retryAfter > retryAfter {
				retryAfter = oc.retryAfter
			}
		}
		if oc.deadline {
			deadline = true
		}
		if oc.entries != nil {
			if len(oc.header.Plan) > 0 && (plan == nil || oc.s[0] < planS) {
				plan, planS = oc.header.Plan, oc.s[0]
			}
			if oc.header.Version > 0 {
				switch {
				case !versionSet:
					version, versionSet = oc.header.Version, true
				case version != oc.header.Version:
					versionMixed = true
				}
			}
			for sVal, e := range oc.entries {
				entries[sVal] = e
			}
			continue
		}
		msg := oc.errMsg
		if msg == "" {
			msg = "replica unavailable"
		}
		for _, sVal := range oc.s {
			entries[sVal] = errorEntry(sVal, msg)
		}
	}

	results := make([]jsonsplice.Entry, 0, len(distinct))
	for _, sVal := range distinct {
		e, ok := entries[sVal]
		if !ok {
			e = errorEntry(sVal, "missing from replica answer")
		}
		results = append(results, jsonsplice.Entry{Raw: e.raw})
		anyOK = anyOK || e.ok
	}

	status := http.StatusOK
	if !anyOK && len(results) > 0 {
		switch {
		case sameStatus && allSameStatus != 0:
			status = allSameStatus
		case shed:
			status = http.StatusTooManyRequests
		case deadline:
			status = http.StatusGatewayTimeout
		default:
			status = http.StatusBadGateway
		}
		if status == http.StatusTooManyRequests {
			if retryAfter < 1 {
				retryAfter = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			rt.metrics.countShed()
		}
	}

	head := mergedHeadJSON{
		Dataset:      dataset,
		VersionMixed: versionMixed,
		Kind:         kind,
		Measure:      measureName,
		Plan:         plan,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
	if versionSet && !versionMixed {
		head.Version = version
	}
	jsonsplice.Write(w, status, head, results)
}

// errorEntry synthesises the per-s error entry for an s no replica
// answered.
func errorEntry(sVal int, msg string) shardEntry {
	raw, _ := json.Marshal(errorEntryJSON{S: sVal, Error: msg}) // ints and strings always marshal
	return shardEntry{raw: raw}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
