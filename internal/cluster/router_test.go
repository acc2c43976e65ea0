package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
	"hyperline/internal/jsonsplice"
	"hyperline/internal/loadgen"
	"hyperline/internal/serve"
)

// randomAdjacency renders a reproducible hypergraph in adjacency text,
// the format uploads carry.
func randomAdjacency(seed int64, edges, vertices, meanSize int) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for e := 0; e < edges; e++ {
		size := 1 + r.Intn(2*meanSize)
		seen := map[int]bool{}
		for k := 0; k < size; k++ {
			seen[r.Intn(vertices)] = true
		}
		first := true
		for v := 0; v < vertices; v++ {
			if seen[v] {
				if !first {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d", v)
				first = false
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func paperHG() *hg.Hypergraph {
	return hg.FromEdgeSlices([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5},
	}, 6)
}

// realReplica runs a full hyperlined serving stack on an httptest
// server.
func realReplica(t *testing.T, svc *serve.Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts
}

func newRouterServer(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt := NewRouter(cfg)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// postQuery posts one /v2/query body and returns status, headers, and
// the raw response.
func postQuery(t *testing.T, base, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v2/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// queryResults decodes the results array of a /v2/query response.
func queryResults(t *testing.T, data []byte) []json.RawMessage {
	t.Helper()
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad query response %s: %v", data, err)
	}
	return out.Results
}

// normalizeEntry strips the per-run fields (cache flags, timings) so
// entries can be compared byte-for-byte across independent processes.
func normalizeEntry(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad entry %s: %v", raw, err)
	}
	delete(m, "cached")
	delete(m, "projection_cached")
	delete(m, "timings_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRouterScatterGatherMatchesSingleNode is the tier's ground truth:
// an upload through the router replicates to every owner, a fanned-out
// sweep merges to exactly the entries a single node produces —
// byte-identical once per-run cache flags and timings are stripped —
// and the merged sweep comes back in ascending s order.
func TestRouterScatterGatherMatchesSingleNode(t *testing.T) {
	adj := randomAdjacency(7, 60, 40, 4)
	repA := realReplica(t, serve.New(serve.Config{}))
	repB := realReplica(t, serve.New(serve.Config{}))
	rt, router := newRouterServer(t, Config{Replicas: []string{repA.URL, repB.URL}, Replication: 2})
	_ = rt

	// Upload through the router: both owners must accept it.
	req, _ := http.NewRequest(http.MethodPut, router.URL+"/v1/datasets/d?format=adj", strings.NewReader(adj))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Replicated int `json:"replicated"`
		Owners     int `json:"owners"`
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &up) != nil || up.Replicated != 2 {
		t.Fatalf("upload via router: status %d body %s", resp.StatusCode, data)
	}

	// Single-node reference.
	single := realReplica(t, serve.New(serve.Config{}))
	sreq, _ := http.NewRequest(http.MethodPut, single.URL+"/v1/datasets/d?format=adj", strings.NewReader(adj))
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("reference upload: %v %v", err, sresp.Status)
	}
	sresp.Body.Close()

	for _, body := range []string{
		`{"dataset":"d","s":"1:4","edges":true}`,
		`{"dataset":"d","s":[1,2],"measure":"components"}`,
	} {
		status, _, routed := postQuery(t, router.URL, body)
		if status != http.StatusOK {
			t.Fatalf("router query %s: status %d: %s", body, status, routed)
		}
		sstatus, _, direct := postQuery(t, single.URL, body)
		if sstatus != http.StatusOK {
			t.Fatalf("single-node query %s: status %d", body, sstatus)
		}
		re := queryResults(t, routed)
		de := queryResults(t, direct)
		if len(re) != len(de) || len(re) == 0 {
			t.Fatalf("%s: %d routed entries vs %d direct", body, len(re), len(de))
		}
		lastS := 0
		for i := range re {
			var peek struct {
				S     int    `json:"s"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(re[i], &peek); err != nil {
				t.Fatal(err)
			}
			if peek.Error != "" {
				t.Fatalf("%s: routed entry s=%d failed: %s", body, peek.S, peek.Error)
			}
			if peek.S <= lastS {
				t.Fatalf("%s: merged entries out of order at s=%d", body, peek.S)
			}
			lastS = peek.S
			got, want := normalizeEntry(t, re[i]), normalizeEntry(t, de[i])
			if got != want {
				t.Fatalf("%s s=%d: routed answer differs from single node:\n  routed: %s\n  direct: %s", body, peek.S, got, want)
			}
		}
	}

	// The merged dataset listing shows both owners.
	lresp, err := http.Get(router.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		Name     string   `json:"name"`
		Replicas []string `json:"replicas"`
	}
	ldata, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if json.Unmarshal(ldata, &list) != nil || len(list) != 1 || list[0].Name != "d" || len(list[0].Replicas) != 2 {
		t.Fatalf("merged dataset listing: %s", ldata)
	}
}

// TestRouterReplicaDownPartialSuccess: one owner is down mid-fan-out
// and the survivor sheds the failed-over shard — the router must answer
// 200 with per-entry errors for the dead shard and intact entries for
// the rest, exactly like a replica's own partial-failure contract.
func TestRouterReplicaDownPartialSuccess(t *testing.T) {
	// Replica A is down (connection refused). Replica B serves only its
	// own shard and sheds anything failed over to it, so the A-shard
	// exhausts its owners deterministically.
	svcB := serve.New(serve.Config{})
	svcB.Add("paper", paperHG())
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	down.Close()

	var bShard []int
	inner := serve.NewHandler(svcB)
	guard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/query" {
			inner.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req struct {
			S []int `json:"s"`
		}
		json.Unmarshal(body, &req)
		mine := len(req.S) == len(bShard)
		for i := range req.S {
			if mine && req.S[i] != bShard[i] {
				mine = false
			}
		}
		if !mine {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"saturated"}`))
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(guard.Close)

	// Shard assignment mirrors the router: s mod |owners| indexes the
	// ring-ordered owner list.
	ownerList := NewRing([]string{down.URL, guard.URL}).Owners("paper", 2)
	var aShard []int
	for s := 1; s <= 2; s++ {
		if ownerList[s%2] == guard.URL {
			bShard = append(bShard, s)
		} else {
			aShard = append(aShard, s)
		}
	}
	if len(aShard) == 0 || len(bShard) == 0 {
		t.Fatalf("degenerate shard split: aShard=%v bShard=%v", aShard, bShard)
	}

	_, router := newRouterServer(t, Config{Replicas: []string{down.URL, guard.URL}, Replication: 2})
	status, hdr, data := postQuery(t, router.URL, `{"dataset":"paper","s":[1,2]}`)
	if status != http.StatusOK {
		t.Fatalf("partial success must stay 200, got %d: %s", status, data)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		t.Fatalf("partial success must not carry Retry-After, got %q", ra)
	}
	results := queryResults(t, data)
	if len(results) != 2 {
		t.Fatalf("want 2 merged entries, got %s", data)
	}
	failed := map[int]bool{}
	for _, s := range aShard {
		failed[s] = true
	}
	for _, raw := range results {
		var e struct {
			S     int    `json:"s"`
			Error string `json:"error"`
			Nodes int    `json:"nodes"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if failed[e.S] && e.Error == "" {
			t.Fatalf("s=%d rode a dead replica yet reports success: %s", e.S, raw)
		}
		if !failed[e.S] && e.Error != "" {
			t.Fatalf("s=%d owned by the live replica failed: %s", e.S, e.Error)
		}
		// A synthesised entry is laid out like a replica's own error
		// entry, so every merged entry starts with {"s":.
		if want := fmt.Sprintf(`{"s":%d,"error":"replica %s answered 429","cached":false}`, e.S, guard.URL); failed[e.S] && string(raw) != want {
			t.Fatalf("synthesised entry %s, want %s", raw, want)
		}
	}
	// The failover is visible in the router's own counters.
	m := routerMetrics(t, router.URL)
	if m[`hyperrouter_retries_total`] < 1 {
		t.Fatalf("no failover retry recorded: %v", m)
	}
}

// TestRouterMergedPlanFollowsLowestS: when the shards' cached
// projections were planned differently, the merged answer reports the
// plan of the shard holding the lowest s — the plan a single node
// reports — on every run, whichever shard finishes first.
func TestRouterMergedPlanFollowsLowestS(t *testing.T) {
	adj := randomAdjacency(7, 60, 40, 4)
	repA := realReplica(t, serve.New(serve.Config{}))
	repB := realReplica(t, serve.New(serve.Config{}))
	_, router := newRouterServer(t, Config{Replicas: []string{repA.URL, repB.URL}, Replication: 2})
	putViaRouter(t, router.URL, "d", adj, 2)
	single := realReplica(t, serve.New(serve.Config{}))
	sreq, _ := http.NewRequest(http.MethodPut, single.URL+"/v1/datasets/d?format=adj", strings.NewReader(adj))
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("reference upload: %v %v", err, sresp.Status)
	}
	sresp.Body.Close()

	plan := func(data []byte) string {
		t.Helper()
		var out struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(data, &out); err != nil || len(out.Plan) == 0 {
			t.Fatalf("no plan in %s", data)
		}
		return string(out.Plan)
	}
	// The shard of s=1 is primed as one batch (an ensemble pass), the
	// other shard one s at a time (hashmap passes); the single node
	// sees the same priming.
	ownerList := NewRing([]string{repA.URL, repB.URL}).Owners("d", 2)
	var batch []int
	for s := 1; s <= 4; s++ {
		if ownerList[s%2] == ownerList[1%2] {
			batch = append(batch, s)
		}
	}
	prime := func(base string) (batchPlan, singlePlan string) {
		body := fmt.Sprintf(`{"dataset":"d","s":%s}`, strings.ReplaceAll(fmt.Sprint(batch), " ", ","))
		_, _, data := postQuery(t, base, body)
		batchPlan = plan(data)
		for s := 1; s <= 4; s++ {
			if ownerList[s%2] != ownerList[1%2] {
				_, _, data = postQuery(t, base, fmt.Sprintf(`{"dataset":"d","s":[%d]}`, s))
				singlePlan = plan(data)
			}
		}
		return batchPlan, singlePlan
	}
	if bp, sp := prime(ownerList[1%2]); bp == sp {
		t.Fatalf("priming planned both shards alike (%s): nothing to tell apart", bp)
	}
	for _, u := range ownerList {
		if u != ownerList[1%2] {
			prime(u)
		}
	}
	prime(single.URL)

	_, _, direct := postQuery(t, single.URL, `{"dataset":"d","s":"1:4"}`)
	want := plan(direct)
	for i := 0; i < 20; i++ {
		status, _, routed := postQuery(t, router.URL, `{"dataset":"d","s":"1:4"}`)
		if status != http.StatusOK {
			t.Fatalf("routed query: status %d: %s", status, routed)
		}
		if got := plan(routed); got != want {
			t.Fatalf("run %d: merged plan %s, single node %s", i, got, want)
		}
	}
}

// TestRouterMergedBodyMatchesEncoder: the spliced merge writes what
// encoding/json writes for the whole merged document — replica entries
// as the replicas wrote them, synthesised error entries, HTML-escaped
// strings, with the version kept, omitted when mixed, or absent.
func TestRouterMergedBodyMatchesEncoder(t *testing.T) {
	rt := NewRouter(Config{})
	answered := func(s []int, version uint64, plan string, entries ...string) shardOutcome {
		oc := shardOutcome{s: s, status: http.StatusOK, entries: map[int]shardEntry{}}
		oc.header.Version = version
		if plan != "" {
			oc.header.Plan = json.RawMessage(plan)
		}
		for i, e := range entries {
			oc.entries[s[i]] = shardEntry{raw: []byte(e), ok: !strings.Contains(e, `"error"`)}
		}
		return oc
	}
	failed := shardOutcome{s: []int{5}, status: http.StatusTooManyRequests, errMsg: "replica <a&b> answered 429", shed: true}
	for _, tc := range []struct {
		name     string
		outcomes []shardOutcome
		distinct []int
		measure  string
	}{
		{"one version", []shardOutcome{
			answered([]int{2, 4}, 3, `{"strategy":"hashmap","toplex":false}`, `{"s":2,"cached":true,"nodes":2,"edges":1}`, `{"s":4,"error":"x \u003c y","cached":false}`),
			answered([]int{1, 3}, 3, `{"strategy":"ensemble","toplex":false}`, `{"s":1,"cached":true}`, `{"s":3,"cached":false}`),
		}, []int{1, 2, 3, 4}, "pagerank"},
		{"mixed versions and a failed shard", []shardOutcome{
			answered([]int{2}, 3, "", `{"s":2,"cached":true}`),
			answered([]int{1}, 4, "", `{"s":1,"cached":true}`),
			failed,
		}, []int{1, 2, 5}, ""},
		{"every shard failed", []shardOutcome{failed}, []int{5, 6}, "<m>"},
		{"no entries", nil, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			rt.writeMerged(rec, time.Now(), "d<&>", "line", tc.measure, tc.distinct, tc.outcomes)
			var got struct {
				mergedHeadJSON
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("merged body %s: %v", rec.Body.Bytes(), err)
			}
			if got.Results == nil {
				got.Results = []json.RawMessage{}
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("merged body differs from its encoding:\n got  %s\n want %s", rec.Body.Bytes(), want.Bytes())
			}
			for _, e := range got.Results {
				if !bytes.HasPrefix(e, []byte(`{"s":`)) {
					t.Fatalf("entry %s does not start with {\"s\":", e)
				}
			}
		})
	}
}

// TestRouterAllOwnersShedTranslates429: when every owner sheds, the
// router answers a single 429 carrying the *largest* Retry-After any
// owner advertised — the client backs off once, conservatively.
func TestRouterAllOwnersShedTranslates429(t *testing.T) {
	shedder := func(retryAfter string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", retryAfter)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"saturated"}`))
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := shedder("3"), shedder("7")
	_, router := newRouterServer(t, Config{Replicas: []string{a.URL, b.URL}, Replication: 2})

	status, hdr, data := postQuery(t, router.URL, `{"dataset":"paper","s":[1,2]}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("all-owners-shed must answer 429, got %d: %s", status, data)
	}
	if ra := hdr.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want the max across owners (7)", ra)
	}
	m := routerMetrics(t, router.URL)
	if m[`hyperrouter_shed_total`] != 1 {
		t.Fatalf("router shed counter: %v", m)
	}
	if m[`hyperrouter_subrequests_total{outcome="shed"}`] < 2 {
		t.Fatalf("expected shed sub-requests against both owners: %v", m)
	}
}

// TestRouterDeadlinePropagatesToReplica is the acceptance contract for
// deadline propagation: a short client timeout_ms expires *on the
// replica* (which answers 504 under its forwarded budget) and the
// router returns promptly — it never hangs waiting out a query the
// deadline already killed.
func TestRouterDeadlinePropagatesToReplica(t *testing.T) {
	svc := serve.New(serve.Config{})
	// 250–470 ms of Stage 1–4 work for s=1 on 2 CPUs: past the budget
	// the replica is forwarded (timeout_ms minus the 40 ms merge margin).
	svc.Add("slow", gen.Community(gen.CommunityConfig{
		Seed: 31, NumVertices: 4000, NumCommunities: 70,
		MeanCommunitySize: 45, EdgesPerCommunity: 50, Background: 1000,
	}))
	rep := realReplica(t, svc)
	_, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})

	timeoutMS, hangAfter := 150, 3*time.Second
	if raceEnabled {
		// Race instrumentation slows the pipeline's cancellation polls;
		// widen the budget so the replica still answers inside its margin.
		timeoutMS, hangAfter = 3000, 15*time.Second
	}
	t0 := time.Now()
	status, _, data := postQuery(t, router.URL,
		fmt.Sprintf(`{"dataset":"slow","s":[1],"timeout_ms":%d}`, timeoutMS))
	elapsed := time.Since(t0)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired query must answer 504, got %d: %s", status, data)
	}
	if elapsed > hangAfter {
		t.Fatalf("router took %v to surface a %dms deadline — it hung", elapsed, timeoutMS)
	}
	// The deadline fired replica-side: the router observed a 504
	// *response*, not a dead connection (outcome would be "error") and
	// not its own context expiry (no sub-request outcome at all).
	m := routerMetrics(t, router.URL)
	if m[`hyperrouter_subrequests_total{outcome="deadline"}`] < 1 {
		t.Fatalf("no replica-side 504 observed — the deadline did not travel: %v", m)
	}
	// The router is alive and serving after the expiry.
	resp, err := http.Get(router.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("router unhealthy after deadline expiry: %v", err)
	}
	resp.Body.Close()
}

// TestRouterReplicaRestartMidSweep: a replica restarting between the
// entries of one sweep must cost nothing visible — queries during the
// outage fail over to the surviving owner, queries after the restart
// may land on the fresh process, and every answer stays byte-identical
// to the pre-restart ones.
func TestRouterReplicaRestartMidSweep(t *testing.T) {
	svcA := serve.New(serve.Config{})
	svcA.Add("paper", paperHG())
	repA := realReplica(t, svcA)

	svcB := serve.New(serve.Config{})
	svcB.Add("paper", paperHG())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := ln.Addr().String()
	srvB := &http.Server{Handler: serve.NewHandler(svcB)}
	go srvB.Serve(ln)

	rt, router := newRouterServer(t, Config{Replicas: []string{repA.URL, "http://" + addrB}, Replication: 2})

	query := func(s int) string {
		status, _, data := postQuery(t, router.URL, fmt.Sprintf(`{"dataset":"paper","s":[%d]}`, s))
		if status != http.StatusOK {
			t.Fatalf("s=%d: status %d mid-restart: %s", s, status, data)
		}
		results := queryResults(t, data)
		if len(results) != 1 {
			t.Fatalf("s=%d: %d entries", s, len(results))
		}
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(results[0], &e)
		if e.Error != "" {
			t.Fatalf("s=%d failed across the restart: %s", s, e.Error)
		}
		return normalizeEntry(t, results[0])
	}

	before := map[int]string{}
	for s := 1; s <= 4; s++ {
		before[s] = query(s)
	}

	// Restart replica B between entries: same address, fresh process
	// state, same dataset bytes.
	srvB.Close()
	for s := 1; s <= 2; s++ {
		if got := query(s); got != before[s] {
			t.Fatalf("s=%d: answer changed while B was down:\n  was %s\n  now %s", s, before[s], got)
		}
	}
	svcB2 := serve.New(serve.Config{})
	svcB2.Add("paper", paperHG())
	var ln2 net.Listener
	for i := 0; i < 200; i++ {
		ln2, err = net.Listen("tcp", addrB)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrB, err)
	}
	srvB2 := &http.Server{Handler: serve.NewHandler(svcB2)}
	go srvB2.Serve(ln2)
	t.Cleanup(func() { srvB2.Close() })
	rt.CheckHealth(context.Background()) // readmit the restarted replica

	for s := 1; s <= 4; s++ {
		if got := query(s); got != before[s] {
			t.Fatalf("s=%d: answer changed across B's restart:\n  was %s\n  now %s", s, before[s], got)
		}
	}
}

// TestRouterOwnDeadlineSparesReplica: when the router's own deadline
// ends an attempt that has no response yet, the query answers 504, the
// attempt is no sub-request, and the replica is not held at fault: it
// stays healthy and serves the next query.
func TestRouterOwnDeadlineSparesReplica(t *testing.T) {
	var serving atomic.Bool
	held, released := make(chan struct{}, 1), make(chan struct{}, 1)
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			S []int `json:"s"`
		}
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &req)
		if !serving.Load() {
			// Hold past every forwarded budget: only the router's own
			// context, ending the connection, lets this request go.
			held <- struct{}{}
			<-r.Context().Done()
			released <- struct{}{}
			return
		}
		entries := make([]jsonsplice.Entry, len(req.S))
		for i, s := range req.S {
			entries[i].Value = stubEntry{S: s, Nodes: 2, Edges: 1}
		}
		jsonsplice.Write(w, http.StatusOK, map[string]any{"dataset": "d", "kind": "line"}, entries)
	}))
	t.Cleanup(rep.Close)
	rt, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})

	status, _, data := postQuery(t, router.URL, `{"dataset":"d","s":[1],"timeout_ms":100}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, data)
	}
	<-held
	<-released
	if st := rt.Replicas(); len(st) != 1 || !st[0].Healthy || st[0].Fails != 0 {
		t.Fatalf("the router's own deadline was held against the replica: %+v", st)
	}
	m := routerMetrics(t, router.URL)
	if _, ok := m[`hyperrouter_subrequests_total{outcome="error"}`]; ok {
		t.Fatalf("the cut attempt counted as a failed sub-request: %v", m)
	}

	serving.Store(true)
	if status, _, data := postQuery(t, router.URL, `{"dataset":"d","s":[1]}`); status != http.StatusOK {
		t.Fatalf("query after the deadline: status %d, want 200: %s", status, data)
	}
}

// stubEntry is an answered entry in a replica's field order.
type stubEntry struct {
	S      int  `json:"s"`
	Cached bool `json:"cached"`
	Nodes  int  `json:"nodes"`
	Edges  int  `json:"edges"`
}

// TestRouterUnusableAnswerIs502: a replica 200 whose body the router
// cannot use — garbage, a valid body under an index that does not
// describe it, or a well-framed body with an entry that is not JSON —
// fails its shard as a 502, so a sweep with no other shard answers 502
// with synthesised error entries, as the replica itself would for a
// sweep where every entry failed. The replica's response still counts
// as one sub-request.
func TestRouterUnusableAnswerIs502(t *testing.T) {
	valid := httptest.NewRecorder()
	jsonsplice.Write(valid, http.StatusOK, map[string]any{"dataset": "d", "kind": "line"},
		[]jsonsplice.Entry{{Value: stubEntry{S: 1, Nodes: 2, Edges: 1}}, {Value: stubEntry{S: 2, Nodes: 2, Edges: 1}}})
	index := valid.Header().Get(jsonsplice.EntriesHeader)
	var head, first, second int
	if _, err := fmt.Sscanf(index, "%d,%d,%d", &head, &first, &second); err != nil {
		t.Fatalf("index %q: %v", index, err)
	}
	type unusable struct{ name, body, index string }
	cases := []unusable{
		{"garbage body", "<html>not json</html>", ""},
		{"garbage under a valid index", strings.Repeat("x", valid.Body.Len()), index},
		{"index joins two entries", valid.Body.String(), fmt.Sprintf("%d,%d", head, first+1+second)},
		{"index misplaces the head", valid.Body.String(), fmt.Sprintf("%d,%d,%d", head-1, first, second)},
	}
	// Entries that pass entryPrefix and Split but are not JSON: only the
	// validator stands between them and the client.
	for _, tc := range []struct{ name, entry string }{
		{"truncated array", `{"s":2,"cached":false,"hyperedge_ids":[0,1`},
		{"trailing bytes after the object", `{"s":2,"cached":false} 7`},
		{"bad \\u escape", `{"s":2,"error":"\u12g4","cached":false}`},
		{"raw control byte in a string", "{\"s\":2,\"error\":\"a\x01b\",\"cached\":false}"},
		{"leading-zero number", `{"s":2,"cached":false,"hyperedge_ids":[0,01]}`},
		{"lone minus", `{"s":2,"cached":false,"nodes":-}`},
		{"nesting of 10001 levels", `{"s":2,"cached":false,"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + "}"},
	} {
		notJSON := httptest.NewRecorder()
		jsonsplice.Write(notJSON, http.StatusOK, map[string]any{"dataset": "d", "kind": "line"},
			[]jsonsplice.Entry{{Value: stubEntry{S: 1, Nodes: 2, Edges: 1}}, {Raw: []byte(tc.entry)}})
		cases = append(cases, unusable{tc.name, notJSON.Body.String(), notJSON.Header().Get(jsonsplice.EntriesHeader)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var answered atomic.Int64
			rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if tc.index != "" {
					w.Header().Set(jsonsplice.EntriesHeader, tc.index)
				}
				w.Write([]byte(tc.body))
				answered.Add(1)
			}))
			t.Cleanup(rep.Close)
			_, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})

			status, _, data := postQuery(t, router.URL, `{"dataset":"d","s":[1,2]}`)
			if status != http.StatusBadGateway {
				t.Fatalf("status %d, want 502: %s", status, data)
			}
			for i, raw := range queryResults(t, data) {
				want := fmt.Sprintf(`{"s":%d,"error":"replica %s: answer does not match its entry index","cached":false}`, i+1, rep.URL)
				if string(raw) != want {
					t.Fatalf("entry %s, want %s", raw, want)
				}
			}
			m := routerMetrics(t, router.URL)
			if got := m[`hyperrouter_subrequests_total{outcome="ok"}`]; got != float64(answered.Load()) || got != 1 {
				t.Fatalf("%v ok sub-requests for %d replica responses: %v", got, answered.Load(), m)
			}
		})
	}
}

// TestRouterAnswerOverCapIs502: a replica that declares a Content-Length
// past maxAnswerBytes fails its shard with a 502 naming the cap, before
// the router reads the body it would otherwise wait on.
func TestRouterAnswerOverCapIs502(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The one sub-request ends when the router hangs up: on reading the
	// header, or at the query's timeout_ms.
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := http.ReadRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{", maxAnswerBytes+1)
		io.Copy(io.Discard, conn)
	}()
	t.Cleanup(func() { ln.Close(); <-served })
	_, router := newRouterServer(t, Config{Replicas: []string{"http://" + ln.Addr().String()}, Replication: 1})

	status, _, data := postQuery(t, router.URL, `{"dataset":"d","s":[1],"timeout_ms":5000}`)
	if status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", status, data)
	}
	want := fmt.Sprintf(`{"s":1,"error":"replica http://%s: answer exceeds %d bytes","cached":false}`, ln.Addr(), maxAnswerBytes)
	if results := queryResults(t, data); len(results) != 1 || string(results[0]) != want {
		t.Fatalf("entries %s, want [%s]", results, want)
	}
}

// TestRouterReusesFanoutConnections: the default fan-out client keeps
// an idle connection per concurrent shard, so a second round of as many
// concurrent queries dials nothing. Each round holds its sub-requests
// at the replica until all 16 are in flight.
func TestRouterReusesFanoutConnections(t *testing.T) {
	const n = 16
	svc := serve.New(serve.Config{})
	svc.Add("paper", paperHG())
	inner := serve.NewHandler(svc)
	var gate sync.WaitGroup
	var dialed atomic.Int64
	rep := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gate.Done()
		gate.Wait()
		inner.ServeHTTP(w, r)
	}))
	rep.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	rep.Start()
	t.Cleanup(rep.Close)
	_, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})

	round := func() int64 {
		before := dialed.Load()
		gate.Add(n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(router.URL+"/v2/query", "application/json", strings.NewReader(`{"dataset":"paper","s":[1]}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		return dialed.Load() - before
	}
	if first := round(); first != n {
		t.Fatalf("first round opened %d connections, want %d", first, n)
	}
	if second := round(); second != 0 {
		t.Fatalf("second round opened %d new connections, want 0", second)
	}
}

// TestRouterSelfRegistration: a replica POSTing its URL joins the map
// and starts owning datasets; garbage URLs and bodies over
// maxQueryBytes are rejected.
func TestRouterSelfRegistration(t *testing.T) {
	svc := serve.New(serve.Config{})
	svc.Add("paper", paperHG())
	rep := realReplica(t, svc)
	_, router := newRouterServer(t, Config{Replication: 1})

	// No members yet: queries have nowhere to go.
	status, _, _ := postQuery(t, router.URL, `{"dataset":"paper","s":[1]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("empty cluster must answer 503, got %d", status)
	}

	reg, err := http.Post(router.URL+"/v1/replicas", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, rep.URL)))
	if err != nil {
		t.Fatal(err)
	}
	reg.Body.Close()
	if reg.StatusCode != http.StatusOK {
		t.Fatalf("registration: status %d", reg.StatusCode)
	}
	status, _, data := postQuery(t, router.URL, `{"dataset":"paper","s":[1]}`)
	if status != http.StatusOK {
		t.Fatalf("query after registration: status %d: %s", status, data)
	}

	for _, tc := range []struct{ name, body string }{
		{"garbage url", `{"url":"not a url"}`},
		// A valid registration but for its size: whitespace padding.
		{"body over maxQueryBytes", fmt.Sprintf(`{"url":%q`, rep.URL) + strings.Repeat(" ", maxQueryBytes) + `}`},
	} {
		bad, err := http.Post(router.URL+"/v1/replicas", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		bad.Body.Close()
		if bad.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s registration: status %d, want 400", tc.name, bad.StatusCode)
		}
	}
}

// TestRouterQueryDecodeErrors: bodies the router cannot shard — and
// bodies over maxQueryBytes, which it would otherwise buffer whole —
// answer 400 before any replica is contacted.
// TestRouterHugeTimeoutStays200: a client timeout_ms past what a
// Duration holds saturates to no deadline at the router, instead of
// wrapping negative into an instant 504; the remaining budget it forwards
// is one the replica accepts too.
func TestRouterHugeTimeoutStays200(t *testing.T) {
	svc := serve.New(serve.Config{})
	svc.Add("paper", paperHG())
	rep := realReplica(t, svc)
	_, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})
	for _, ms := range []string{"9223372036855", "10000000000000", "9223372036854775807"} {
		body := `{"dataset":"paper","s":[1,2],"timeout_ms":` + ms + `}`
		if status, _, data := postQuery(t, router.URL, body); status != http.StatusOK {
			t.Fatalf("timeout_ms %s: status %d, want 200: %s", ms, status, data)
		}
	}
}

func TestRouterQueryDecodeErrors(t *testing.T) {
	svc := serve.New(serve.Config{})
	svc.Add("paper", paperHG())
	rep := realReplica(t, svc)
	_, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})

	for _, tc := range []struct{ name, body string }{
		{"truncated JSON", `{"dataset":"paper","s":[1]`},
		{"not an object", `[1]`},
		{"missing dataset", `{"s":[1]}`},
		{"missing s", `{"dataset":"paper"}`},
		{"bad s", `{"dataset":"paper","s":"5:2"}`},
		// Well-formed and answerable but for its size: whitespace padding.
		{"body over maxQueryBytes", `{"dataset":"paper","s":[1]` + strings.Repeat(" ", maxQueryBytes) + `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if status, _, data := postQuery(t, router.URL, tc.body); status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, data)
			}
		})
	}
	if status, _, data := postQuery(t, router.URL, `{"dataset":"paper","s":[1]}`); status != http.StatusOK {
		t.Fatalf("well-formed query: status %d: %s", status, data)
	}
	if m := routerMetrics(t, router.URL); m[`hyperrouter_queries_total`] != 1 {
		t.Fatalf("rejected bodies must not count as fanned-out queries: %v", m[`hyperrouter_queries_total`])
	}
}

// TestQuerySGrammarBothTiers: router and replica decode the "s" field
// of a /v2/query body with one grammar (core.DecodeSValues), so they
// accept and reject the same bodies, and an accepted body answers the
// same s values on both.
func TestQuerySGrammarBothTiers(t *testing.T) {
	svc := serve.New(serve.Config{})
	svc.Add("paper", paperHG())
	rep := realReplica(t, svc)
	_, router := newRouterServer(t, Config{Replicas: []string{rep.URL}, Replication: 1})

	over := strings.Repeat("1,", core.MaxSValues) + "1"
	for _, tc := range []struct {
		name  string
		field string // the "s" member, "" for none
		want  []int  // nil: rejected with 400
	}{
		{"array", `"s":[2,1]`, []int{1, 2}},
		{"s-list string", `"s":"1,3:4"`, []int{1, 3, 4}},
		{"missing", ``, nil},
		{"null", `"s":null`, nil},
		{"empty array", `"s":[]`, nil},
		{"non-integer", `"s":[1.5]`, nil},
		{"zero", `"s":[0]`, nil},
		{"empty range", `"s":"5:2"`, nil},
		{"object", `"s":{}`, nil},
		{"array over MaxSValues", `"s":[` + over + `]`, nil},
		{"range over MaxSValues", fmt.Sprintf(`"s":"1:%d"`, core.MaxSValues+1), nil},
	} {
		body := `{"dataset":"paper"}`
		if tc.field != "" {
			body = `{"dataset":"paper",` + tc.field + `}`
		}
		for _, tier := range []struct{ name, url string }{{"replica", rep.URL}, {"router", router.URL}} {
			status, _, data := postQuery(t, tier.url, body)
			if tc.want == nil {
				if status != http.StatusBadRequest {
					t.Errorf("%s, %s: status %d, want 400: %s", tc.name, tier.name, status, data)
				}
				continue
			}
			if status != http.StatusOK {
				t.Fatalf("%s, %s: status %d, want 200: %s", tc.name, tier.name, status, data)
			}
			var got []int
			for _, raw := range queryResults(t, data) {
				var e struct{ S int }
				if err := json.Unmarshal(raw, &e); err != nil {
					t.Fatal(err)
				}
				got = append(got, e.S)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s: answered s = %v, want %v", tc.name, tier.name, got, tc.want)
			}
		}
	}

	// The Table III knobs are refused by name on both tiers: the router
	// forwards the member as it came, and the replica answers 400.
	for _, tc := range []struct{ name, member string }{
		{"config", `"config":"2BN"`}, {"toplex", `"toplex":false`}, {"nosqueeze", `"nosqueeze":true`}, {"exact", `"exact":true`},
	} {
		body := `{"dataset":"paper","s":[1],` + tc.member + `}`
		for _, tier := range []struct{ name, url string }{{"replica", rep.URL}, {"router", router.URL}} {
			status, _, data := postQuery(t, tier.url, body)
			if status != http.StatusBadRequest || !strings.Contains(string(data), `\"`+tc.name+`\" is not accepted`) {
				t.Errorf("%s, %s: status %d, want 400 naming the field: %s", tc.name, tier.name, status, data)
			}
		}
	}
}

// routerMetrics scrapes and parses the router's /metrics.
func routerMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	m, err := loadgen.FetchMetrics(context.Background(), nil, base)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// putViaRouter uploads an adjacency body through the router and fails
// the test unless every owner accepted it.
func putViaRouter(t *testing.T, router, name, adj string, wantOwners int) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, router+"/v1/datasets/"+name+"?format=adj", strings.NewReader(adj))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var up struct {
		Replicated int `json:"replicated"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &up) != nil || up.Replicated != wantOwners {
		t.Fatalf("upload via router: status %d body %s", resp.StatusCode, data)
	}
}

// postIngest posts one /v2/ingest body and returns status plus the
// decoded fan-out summary.
func postIngest(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v2/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad ingest response %s: %v", data, err)
	}
	return resp.StatusCode, out
}

// TestRouterIngestFanOut: a delta through the router lands on every
// owner (success requires ALL of them — a replica that misses a delta
// diverges permanently, unlike an upload which can be re-PUT), and a
// routed query afterwards reports one unmixed version.
func TestRouterIngestFanOut(t *testing.T) {
	adj := "0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n"
	svcA, svcB := serve.New(serve.Config{}), serve.New(serve.Config{})
	repA, repB := realReplica(t, svcA), realReplica(t, svcB)
	_, router := newRouterServer(t, Config{Replicas: []string{repA.URL, repB.URL}, Replication: 2})
	putViaRouter(t, router.URL, "d", adj, 2)

	status, out := postIngest(t, router.URL, `{"dataset": "d", "inserts": [[4, 5]]}`)
	if status != http.StatusOK {
		t.Fatalf("ingest fan-out: status %d body %v", status, out)
	}
	if out["applied"].(float64) != 2 || out["owners"].(float64) != 2 {
		t.Fatalf("applied/owners = %v/%v, want 2/2", out["applied"], out["owners"])
	}

	// Both replicas really advanced: direct sweeps answer at version 2.
	for _, rep := range []*httptest.Server{repA, repB} {
		st, _, data := postQuery(t, rep.URL, `{"dataset": "d", "s": [1, 2]}`)
		var vr struct {
			Version uint64 `json:"version"`
		}
		if st != http.StatusOK || json.Unmarshal(data, &vr) != nil || vr.Version != 2 {
			t.Fatalf("replica after ingest: status %d version %d body %s", st, vr.Version, data)
		}
	}

	// The routed merged sweep agrees on the version — not mixed.
	st, _, data := postQuery(t, router.URL, `{"dataset": "d", "s": "1:4"}`)
	var merged struct {
		Version      uint64 `json:"version"`
		VersionMixed bool   `json:"version_mixed"`
	}
	if st != http.StatusOK || json.Unmarshal(data, &merged) != nil {
		t.Fatalf("routed query after ingest: status %d body %s", st, data)
	}
	if merged.VersionMixed || merged.Version != 2 {
		t.Fatalf("merged version %d mixed=%v, want 2 unmixed", merged.Version, merged.VersionMixed)
	}

	// The router's ingest counter shows on /metrics.
	mresp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), "hyperrouter_ingests_total 1") {
		t.Fatalf("router metrics missing ingest counter:\n%s", mdata)
	}
}

// TestRouterIngestPartialFailureIs502: if any owner misses the delta
// the fan-out is NOT a success — the caller must know the replica set
// has diverged.
func TestRouterIngestPartialFailureIs502(t *testing.T) {
	adj := "0 1\n1 2\n2 3\n"
	repA := realReplica(t, serve.New(serve.Config{}))
	repB := realReplica(t, serve.New(serve.Config{}))
	_, router := newRouterServer(t, Config{Replicas: []string{repA.URL, repB.URL}, Replication: 2})
	putViaRouter(t, router.URL, "d", adj, 2)

	repB.Close()
	status, out := postIngest(t, router.URL, `{"dataset": "d", "inserts": [[0, 3]]}`)
	if status != http.StatusBadGateway {
		t.Fatalf("partial ingest: status %d, want 502 (body %v)", status, out)
	}
	if out["applied"].(float64) != 1 {
		t.Fatalf("applied = %v, want 1", out["applied"])
	}
}

// TestRouterIngestUnanimousConflictIs409: a stale base_version pin
// rejected by every owner surfaces as a 409, so clients can distinguish
// "re-read and rebuild the delta" from a replica failure.
func TestRouterIngestUnanimousConflictIs409(t *testing.T) {
	adj := "0 1\n1 2\n"
	repA := realReplica(t, serve.New(serve.Config{}))
	repB := realReplica(t, serve.New(serve.Config{}))
	_, router := newRouterServer(t, Config{Replicas: []string{repA.URL, repB.URL}, Replication: 2})
	putViaRouter(t, router.URL, "d", adj, 2)

	status, out := postIngest(t, router.URL, `{"dataset": "d", "base_version": 99, "inserts": [[0, 2]]}`)
	if status != http.StatusConflict {
		t.Fatalf("stale pin: status %d, want 409 (body %v)", status, out)
	}
	if out["applied"].(float64) != 0 {
		t.Fatalf("applied = %v, want 0", out["applied"])
	}
}

// TestRouterVersionMixedFlag: when shards answer one sweep from
// different dataset versions (a replica that ingested out-of-band), the
// merged response flags version_mixed instead of inventing a version.
func TestRouterVersionMixedFlag(t *testing.T) {
	adj := "0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n"
	repA := realReplica(t, serve.New(serve.Config{}))
	repB := realReplica(t, serve.New(serve.Config{}))
	_, router := newRouterServer(t, Config{Replicas: []string{repA.URL, repB.URL}, Replication: 2})
	putViaRouter(t, router.URL, "d", adj, 2)

	// Diverge replica A behind the router's back.
	resp, err := http.Post(repA.URL+"/v2/ingest", "application/json",
		strings.NewReader(`{"dataset": "d", "inserts": [[4, 5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct ingest to replica A: %d", resp.StatusCode)
	}

	// A sweep wide enough to touch both shards must see the mix.
	st, _, data := postQuery(t, router.URL, `{"dataset": "d", "s": "1:4"}`)
	var merged struct {
		Version      uint64 `json:"version"`
		VersionMixed bool   `json:"version_mixed"`
	}
	if st != http.StatusOK || json.Unmarshal(data, &merged) != nil {
		t.Fatalf("routed query: status %d body %s", st, data)
	}
	if !merged.VersionMixed {
		t.Fatalf("merged response did not flag mixed versions: %s", data)
	}
	if merged.Version != 0 {
		t.Fatalf("mixed response invented version %d", merged.Version)
	}
}

// TestRouterChangesProxy: the change feed proxies to a healthy owner
// with the query string intact.
func TestRouterChangesProxy(t *testing.T) {
	adj := "0 1\n1 2\n"
	repA := realReplica(t, serve.New(serve.Config{}))
	_, router := newRouterServer(t, Config{Replicas: []string{repA.URL}, Replication: 1})
	putViaRouter(t, router.URL, "d", adj, 1)

	status, out := postIngest(t, router.URL, `{"dataset": "d", "inserts": [[0, 2]]}`)
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d body %v", status, out)
	}

	resp, err := http.Get(router.URL + "/v2/datasets/d/changes?since=1&timeout_ms=2000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var feed struct {
		Version uint64 `json:"version"`
		Events  []struct {
			Version uint64 `json:"version"`
			Inserts int    `json:"inserts"`
		} `json:"events"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &feed) != nil {
		t.Fatalf("proxied changes: status %d body %s", resp.StatusCode, data)
	}
	if feed.Version != 2 || len(feed.Events) != 1 || feed.Events[0].Inserts != 1 {
		t.Fatalf("proxied feed %s, want version 2 with the one ingest event", data)
	}

	// Unknown dataset: the owning replica's 404 passes through verbatim.
	nresp, err := http.Get(router.URL + "/v2/datasets/nope/changes?since=0")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("changes for unknown dataset: %d, want the replica's 404", nresp.StatusCode)
	}
}
