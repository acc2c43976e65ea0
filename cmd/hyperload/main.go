// Command hyperload drives open-loop load at a hyperlined server and
// reports what the server did under it: latency quantiles of admitted
// requests, shed rate (429s), per-status counts, and a consistency
// check that every answer for the same (kind, s) stayed identical
// across the run. Arrivals are scheduled at a fixed rate regardless of
// response times, so a saturated server shows up as shed traffic and a
// rising queue — not as a politely slowed-down client.
//
// Usage:
//
//	hyperload -url http://localhost:8080 -dataset web [-data web.hgr]
//	          [-targets http://a:8080,http://b:8080]
//	          [-duration 30s] [-rate 200] [-smax 4] [-measure components]
//	          [-mix 8,3,1] [-mix 16,3,0,1] [-max-outstanding 512] [-timeout 30s]
//	          [-seed 1] [-priority interactive] [-label run1] [-o out.json]
//
// -targets switches to multi-node mode: arrivals round-robin across the
// listed bases (replicas, or routers in front of them), -data primes
// every target, and the first-seen consistency map is shared — two
// nodes answering the same question differently counts as a mismatch,
// which is the cross-replica consistency check of a distributed run.
//
// -mix weighs sweep,measure,upload traffic, with an optional fourth
// ingest weight (upload needs -data; the dataset body is re-PUT
// verbatim, so versions churn but answers must not). Ingest traffic
// POSTs seeded insert-only deltas to /v2/ingest: every delta bumps the
// dataset version, and the consistency check is version-aware — two
// answers must agree only when pinned to the same version, so streaming
// churn and answer stability are exercised together. With -data the
// dataset is uploaded before the run starts, so
// hyperload can target a freshly started server. -o writes the report
// as JSON: a label, a date, and one {name, runs, iters, ns_per_op} row
// per quantile and counter (loadgen.BenchReport).
//
//	curl -s localhost:8080/metrics | grep hyperline_admission
//
// reconciles the server side: admitted+shed on the server must equal
// the client's 2xx+429 counts (hyperload exits nonzero on mismatches or
// transport errors, so CI can use it as a smoke check).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"hyperline/internal/loadgen"
)

// parseMix accepts sweep,measure,upload weights with an optional
// fourth ingest weight (omitted = 0, the pre-streaming spelling).
func parseMix(v string) (loadgen.Mix, error) {
	parts := strings.Split(v, ",")
	if len(parts) != 3 && len(parts) != 4 {
		return loadgen.Mix{}, fmt.Errorf("want sweep,measure,upload[,ingest] weights, got %q", v)
	}
	var w [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f < 0 {
			return loadgen.Mix{}, fmt.Errorf("bad mix weight %q", p)
		}
		w[i] = f
	}
	return loadgen.Mix{Sweep: w[0], Measure: w[1], Upload: w[2], Ingest: w[3]}, nil
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of the hyperlined server")
	targets := flag.String("targets", "", "comma-separated base URLs for multi-node mode: arrivals round-robin across them and the first-seen consistency check spans nodes (overrides -url)")
	dataset := flag.String("dataset", "", "dataset name to query (required)")
	data := flag.String("data", "", "adjacency-format dataset file to upload before the run (enables upload traffic)")
	duration := flag.Duration("duration", 30*time.Second, "how long to generate arrivals")
	rate := flag.Float64("rate", 100, "open-loop arrival rate, requests/second")
	smax := flag.Int("smax", 4, "upper bound of drawn s values")
	measureName := flag.String("measure", "components", "measure for measure traffic")
	mixFlag := flag.String("mix", "8,3,1", "traffic mix as sweep,measure,upload[,ingest] weights")
	maxOut := flag.Int("max-outstanding", 512, "client-side in-flight cap; arrivals past it are dropped")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	seed := flag.Int64("seed", 1, "seed for the arrival draw sequence")
	priority := flag.String("priority", "", "v2 priority for query traffic (interactive|background)")
	label := flag.String("label", "", "label embedded in the JSON report")
	out := flag.String("o", "", "write a JSON report (latency quantiles and counters) here")
	flag.Parse()

	if *dataset == "" {
		fmt.Fprintln(os.Stderr, "hyperload: -dataset is required")
		os.Exit(2)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperload: %v\n", err)
		os.Exit(2)
	}

	var targetList []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targetList = append(targetList, t)
		}
	}

	cfg := loadgen.Config{
		BaseURL:        *url,
		Targets:        targetList,
		Dataset:        *dataset,
		Duration:       *duration,
		Rate:           *rate,
		MaxOutstanding: *maxOut,
		SMax:           *smax,
		Measure:        *measureName,
		Mix:            mix,
		Priority:       *priority,
		Timeout:        *timeout,
		Seed:           *seed,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *data != "" {
		body, err := os.ReadFile(*data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyperload: %v\n", err)
			os.Exit(1)
		}
		cfg.UploadBody = body
		if err := loadgen.Prime(ctx, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "hyperload: %v\n", err)
			os.Exit(1)
		}
	}

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperload: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprint(os.Stderr, rep.Summary())

	if *out != "" {
		lbl := *label
		if lbl == "" {
			lbl = fmt.Sprintf("hyperload %s rate=%g mix=%s", *dataset, *rate, *mixFlag)
		}
		blob, err := json.MarshalIndent(rep.BenchJSON(lbl, time.Now()), "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyperload: writing report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}

	// Mismatched answers or transport failures mean the run cannot
	// vouch for the server — fail so CI smoke checks catch it. Shed
	// traffic is not a failure: it is the mechanism under test.
	if rep.Mismatches > 0 || rep.TransportErrors > 0 {
		os.Exit(1)
	}
}
