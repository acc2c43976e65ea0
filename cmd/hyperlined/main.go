// Command hyperlined is a long-running s-line-graph query server: it
// keeps named hypergraph datasets in memory and serves s-line / s-clique
// graph projections and s-measures over HTTP/JSON, with an LRU result
// cache and singleflight deduplication so concurrent identical requests
// run the five-stage pipeline once.
//
// Usage:
//
//	hyperlined [-addr :8080] [-cache 128] [-measure-cache 1024]
//	           [-load name=path ...] [-warmup 1:4]
//	           [-request-timeout 30s] [-drain-timeout 10s]
//	           [-max-inflight 8] [-shed-cost-budget 4000] [-max-queue 64]
//	           [-state-dir dir] [-spill-dir dir] [-spill-budget bytes]
//	           [-register http://router:8090 -advertise http://host:8080]
//
// Each -load registers a dataset at startup (format by extension:
// ".pairs", ".bin", or adjacency lines — ".bin" files are mmap'd, so
// registration touches pages, not bytes, and datasets may exceed RAM);
// -warmup precomputes the given s-sweep (a value, comma list, or lo:hi
// range, e.g. "1,4:8") for every loaded dataset as one
// background-priority query — the same request a client sends as
// POST /v2/query with "priority":"background".
//
// -spill-dir attaches a disk tier under the LRU caches: evicted
// projections and measure values serialize there (bounded to
// -spill-budget bytes) and memory misses probe the directory before
// recomputing. -state-dir makes restarts warm: a graceful shutdown
// persists the dataset registry (names, versions, binary files) and
// flushes the caches to the spill tier; the next boot with the same
// -state-dir maps the datasets back under their original versions, so
// cached keys — and the spilled entries behind them — remain valid.
// When -state-dir is set, -spill-dir defaults to <state-dir>/spill.
// Datasets restored from a snapshot take precedence over a -load of
// the same name.
//
// -max-inflight and -shed-cost-budget turn on admission control: they
// bound concurrent Stage-3 work by request count and by summed
// planner-estimated cost (one unit per 50 000 wedge pairs of the
// dataset's statistics, roughly a millisecond of Stage-3 work).
// When saturated, interactive requests wait in a bounded FIFO queue
// (-max-queue) and overflow is shed with 429 + Retry-After; background
// work (-warmup, "priority":"background" queries) never queues. GET
// /metrics exposes the Prometheus text exposition: cache hit rates,
// compute counters, singleflight dedups, admission occupancy,
// per-stage latency histograms, and response codes.
//
// -register/-advertise join a scatter-gather tier: the replica
// heartbeats its advertised base URL to a hyperrouter every
// -register-interval, so routers discover replicas without static
// wiring (see cmd/hyperrouter).
//
// -request-timeout bounds every request via its context: past it the
// pipeline aborts cooperatively and the client receives 504 (a
// per-request "timeout_ms" on POST /v2/query composes with it —
// whichever expires first wins). On SIGINT/SIGTERM the server stops
// accepting connections and drains in-flight requests for up to
// -drain-timeout before exiting; a second signal aborts immediately.
//
// Endpoints (see internal/serve.NewHandler):
//
//	curl -X PUT --data-binary @data.hgr 'localhost:8080/v1/datasets/web'
//	curl -X POST -d '{"dataset":"web","s":[4],"edges":true}' 'localhost:8080/v2/query'
//	curl -X POST -d '{"dataset":"web","s":"1:4","measure":"diameter","timeout_ms":500}' 'localhost:8080/v2/query'
//	curl -X POST -d '{"dataset":"web","s":"1:8","priority":"background"}' 'localhost:8080/v2/query'
//	curl -X POST -d '{"dataset":"web","inserts":[[0,3,7]],"deletes":[12]}' 'localhost:8080/v2/ingest'
//	curl 'localhost:8080/v2/datasets/web/changes?since=1&timeout_ms=5000'
//	curl 'localhost:8080/v1/measures'
//	curl 'localhost:8080/v1/cache'
//
// The service answers one output class — exact weights, relabel N,
// toplex off, squeezed ID space — so a /v2/query body names no
// preprocessing knob: "config", "toplex", "nosqueeze" and "exact" are
// refused with 400 naming the field (the Table III variables stay on
// cmd/slinegraph and cmd/experiments). The planner picks the Stage-3
// strategy, which changes no output byte, and the response's "plan"
// reports it. Planning and admission pricing read the dataset's
// statistics only, so the same query on the same dataset version is
// planned and priced the same whatever ran before it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/serve"
)

// loadFlags collects repeated -load name=path arguments.
type loadFlags []struct{ name, path string }

func (l *loadFlags) String() string { return fmt.Sprintf("%d datasets", len(*l)) }

func (l *loadFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, struct{ name, path string }{name, path})
	return nil
}

// withRequestTimeout bounds every request's context, so a stuck or
// oversized query cannot hold a handler goroutine past the deadline:
// the pipeline under it aborts cooperatively and the handler answers
// 504.
func withRequestTimeout(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// heartbeat POSTs {"url": advertise} to router/v1/replicas once per
// interval until ctx is done, logging registration state transitions.
func heartbeat(ctx context.Context, router, advertise string, interval time.Duration) {
	body := fmt.Sprintf(`{"url":%q}`, advertise)
	client := &http.Client{Timeout: 2 * time.Second}
	registered := false
	attempt := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, router+"/v1/replicas", strings.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		ok := err == nil && resp.StatusCode == http.StatusOK
		if ok && !registered {
			log.Printf("hyperlined: registered %s with router %s", advertise, router)
		} else if !ok && registered {
			log.Printf("hyperlined: lost registration with router %s", router)
		}
		registered = ok
	}
	attempt()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			attempt()
		}
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", serve.DefaultCacheEntries, "LRU capacity in cached pipeline results")
	mcache := flag.Int("measure-cache", serve.DefaultMeasureCacheEntries, "LRU capacity in cached measure values")
	warmup := flag.String("warmup", "", "comma-separated s values to precompute for every loaded dataset")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request timeout applied via the request context (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window after SIGINT/SIGTERM")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted Stage-3 passes; excess interactive requests queue then shed with 429 (0 = unlimited)")
	shedCostBudget := flag.Int64("shed-cost-budget", 0, "max summed planner-estimated cost of admitted Stage-3 work, in units of 50k wedge pairs (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "max interactive requests waiting for admission before 429 (0 = default 64)")
	maxPerDataset := flag.Int("max-inflight-per-dataset", 0, "max concurrently admitted Stage-3 passes per dataset; excess is shed immediately with 429 (0 = unlimited)")
	registerURL := flag.String("register", "", "hyperrouter base URL to self-register with (requires -advertise)")
	advertise := flag.String("advertise", "", "this replica's base URL as reachable by the router, e.g. http://10.0.0.2:8080")
	registerInterval := flag.Duration("register-interval", 5*time.Second, "heartbeat period for -register")
	stateDir := flag.String("state-dir", "", "directory for registry snapshots: restored on boot (warm start), written on graceful shutdown")
	spillDir := flag.String("spill-dir", "", "directory for the disk cache tier under the LRUs (default <state-dir>/spill when -state-dir is set)")
	spillBudget := flag.Int64("spill-budget", 0, "max bytes in the spill directory; least recently used entries are removed past it (0 = unbounded)")
	var loads loadFlags
	flag.Var(&loads, "load", "dataset to register at startup, as name=path (repeatable)")
	flag.Parse()

	svc := serve.New(serve.Config{
		CacheEntries:          *cache,
		MeasureCacheEntries:   *mcache,
		MaxInflight:           *maxInflight,
		ShedCostBudget:        *shedCostBudget,
		MaxQueue:              *maxQueue,
		MaxInflightPerDataset: *maxPerDataset,
	})

	// Storage tier: the spill directory turns cache evictions into disk
	// entries, and the state directory turns restarts into warm starts.
	if *spillDir == "" && *stateDir != "" {
		*spillDir = filepath.Join(*stateDir, "spill")
	}
	if *spillDir != "" {
		if err := svc.EnableSpill(*spillDir, *spillBudget); err != nil {
			log.Fatalf("hyperlined: %v", err)
		}
		log.Printf("spill tier at %s (budget %d bytes)", *spillDir, *spillBudget)
	}
	restored := map[string]bool{}
	if *stateDir != "" {
		names, err := svc.RestoreState(*stateDir)
		if err != nil {
			log.Fatalf("hyperlined: restoring state: %v", err)
		}
		for _, name := range names {
			restored[name] = true
			stats, _ := svc.Stats(name)
			log.Printf("restored %v", stats)
		}
	}

	for _, l := range loads {
		if restored[l.name] {
			// The snapshot already carries this dataset under its
			// pre-restart version; re-loading would bump the version
			// and orphan every warm cache entry.
			log.Printf("skipping -load %s: restored from %s", l.name, *stateDir)
			continue
		}
		if err := svc.Load(l.name, l.path); err != nil {
			log.Fatalf("hyperlined: loading %s: %v", l.name, err)
		}
		stats, _ := svc.Stats(l.name)
		log.Printf("loaded %v", stats)
	}

	if *warmup != "" {
		sweep, err := core.ParseSValues(*warmup)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyperlined: bad -warmup value: %v\n", err)
			os.Exit(2)
		}
		for _, d := range svc.Datasets() {
			qr, err := svc.Query(context.Background(), serve.QueryRequest{
				Dataset: d.Name, S: sweep, Priority: serve.PriorityBackground,
			})
			if err != nil {
				log.Fatalf("hyperlined: warmup %s: %v", d.Name, err)
			}
			n := 0
			for _, e := range qr.Entries {
				if !e.Cached {
					n++
				}
			}
			log.Printf("warmed %s: %d projections (s in %v)", d.Name, n, sweep)
		}
	}

	handler := serve.NewHandler(svc)
	if *reqTimeout > 0 {
		handler = withRequestTimeout(handler, *reqTimeout)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	// SIGINT/SIGTERM starts a graceful drain: Shutdown stops accepting
	// and waits for in-flight requests; if the drain window expires,
	// srv.Close severs the remaining connections, which cancels their
	// request contexts and aborts their pipelines cooperatively.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Self-registration: heartbeat this replica's advertised URL to a
	// hyperrouter so the scatter-gather tier discovers it without static
	// -replicas wiring. Failures are retried every interval (the router
	// may simply not be up yet); only state changes are logged.
	if *registerURL != "" {
		if *advertise == "" {
			fmt.Fprintln(os.Stderr, "hyperlined: -register requires -advertise")
			os.Exit(2)
		}
		go heartbeat(ctx, strings.TrimRight(*registerURL, "/"), *advertise, *registerInterval)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("hyperlined listening on %s (cache capacity %d)", *addr, *cache)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C aborts hard
		log.Printf("hyperlined: shutdown signal received, draining for up to %v", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			// Drain window expired with requests still in flight:
			// close their connections (cancelling their contexts) and
			// report the unclean exit.
			srv.Close()
			log.Printf("hyperlined: drain window expired: %v", err)
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		if *stateDir != "" {
			// All requests are drained: snapshot the registry and flush
			// the caches so the next boot starts warm.
			if err := svc.SaveState(*stateDir); err != nil {
				log.Printf("hyperlined: saving state: %v", err)
				os.Exit(1)
			}
			log.Printf("hyperlined: state saved to %s", *stateDir)
		}
		svc.Close()
		log.Printf("hyperlined: drained cleanly")
	}
}
