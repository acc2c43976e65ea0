// Command slinegraph runs the end-to-end s-line graph framework on a
// hypergraph file: preprocessing, optional toplex simplification, the
// planned s-overlap computation, ID squeezing, and the requested
// s-measures.
//
// Usage:
//
//	slinegraph -in data.hgr -s 8 [-config auto] [-dual] [-toplex]
//	           [-workers N] [-metrics cc,bc,pagerank,connectivity]
//	           [-measure NAME [-param k=v] [-top K]] [-out edges.txt]
//	           [-timeout 30s]
//
// -timeout bounds the whole run via the root context: the pipeline and
// the per-s measure loop abort cooperatively on expiry, partial-sweep
// diagnostics (how many s values completed, elapsed time) go to
// stderr, and the exit status is non-zero.
//
// -s accepts a single value ("8"), a comma-separated list ("1,2,5"),
// an inclusive range ("2:6"), or any mix ("1,4:6"). Multi-s sweeps run
// as one batched query: the planner decides whether a single ensemble
// counting pass or per-s passes serve the sweep. -config takes the
// extended Table III notation (e.g. 2BA, 1CN, 3CA, ABN) or the word
// "auto" (default: planner-chosen strategy, relabel N). -toplex turns
// on Stage-2 simplification.
//
// -measure evaluates one registered Stage-5 measure across the sweep
// and prints a paper-style tab-separated table (scalar measures: one
// row per s; per-node measures: the top K nodes per s) — and nothing
// else — on stdout, so the output can be piped or diffed; dataset
// statistics and per-s diagnostics go to stderr. -param passes
// measure parameters (e.g. -param source=3 for distances); -measure
// help lists the registry.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hyperline"
	"hyperline/internal/core"
	"hyperline/internal/hgio"
	"hyperline/internal/measure"
	"hyperline/internal/par"
)

// paramFlags collects repeated -param k=v arguments.
type paramFlags map[string]string

func (p paramFlags) String() string { return fmt.Sprintf("%d params", len(p)) }

func (p paramFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", v)
	}
	p[k] = val
	return nil
}

func main() {
	in := flag.String("in", "", "input hypergraph (.pairs or adjacency lines)")
	sSpec := flag.String("s", "2", "minimum overlap s: value, list, or lo:hi range (e.g. 8 or 1,4:6)")
	notation := flag.String("config", "auto", "algorithm/partition/relabel notation (Table III, extended), or auto")
	dual := flag.Bool("dual", false, "compute the s-clique graph (dual hypergraph)")
	toplex := flag.Bool("toplex", false, "Stage-2 toplex simplification")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	metrics := flag.String("metrics", "cc", "comma-separated: cc, bc, pagerank, connectivity")
	measureName := flag.String("measure", "", "emit an s-sweep table of this registered measure (\"help\" lists them)")
	top := flag.Int("top", 5, "rows per s in per-node measure sweep tables")
	params := paramFlags{}
	flag.Var(params, "param", "measure parameter, as key=value (repeatable)")
	out := flag.String("out", "", "optionally write the s-line edge list(s) here (multi-s sweeps prefix each line with s)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray positional argument means everything after it was
		// silently dropped by the flag parser — the classic trap is
		// "-toplex false", which must be spelled "-toplex=false"
		// (boolean flags only bind values with '=').
		fmt.Fprintf(os.Stderr, "slinegraph: unexpected argument %q (boolean flags like -toplex take values only as -toplex=false)\n", flag.Arg(0))
		os.Exit(2)
	}

	ctx := context.Background()
	start := time.Now()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *measureName == "help" {
		for _, info := range measure.Infos() {
			fmt.Printf("%-18s %-10s %s\n", info.Name, info.Cost, info.Doc)
			for _, p := range info.Params {
				fmt.Printf("%-18s   -param %s=... (%s)\n", "", p.Name, p.Doc)
			}
		}
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "slinegraph: -in is required")
		os.Exit(2)
	}
	cfg, err := core.ParseNotation(*notation)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
		os.Exit(2)
	}
	sweep, err := core.ParseSValues(*sSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
		os.Exit(2)
	}

	// Resolve the measure and its params before any pipeline work, so
	// a typo fails in milliseconds instead of after a full sweep.
	var sweepMeasure measure.Measure
	var sweepParams measure.Params
	if *measureName != "" {
		if sweepMeasure, err = measure.Get(*measureName); err == nil {
			sweepParams, err = measure.Canonicalize(sweepMeasure, params)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
			os.Exit(2)
		}
	}

	// .bin inputs map rather than parse: startup cost is pages touched,
	// and the dataset may exceed RAM. The process exit unmaps.
	h, err := hgio.MapFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
		os.Exit(1)
	}
	if *dual {
		h = h.Dual()
	}
	diag := os.Stdout
	if *measureName != "" {
		// The sweep table owns stdout; everything else becomes
		// diagnostics.
		diag = os.Stderr
	}
	fmt.Fprintf(diag, "%v\n", hyperline.ComputeStats(*in, h))

	opt := hyperline.Options{
		Algorithm: cfg.Algorithm,
		Partition: cfg.Partition,
		Relabel:   cfg.Relabel,
		Workers:   *workers,
		Toplex:    *toplex,
	}
	distinct := core.DistinctS(sweep)
	qr, err := hyperline.Execute(ctx, hyperline.Query{Hypergraph: h, S: sweep, Options: opt})
	if err != nil {
		if isContextErr(err) {
			// The batched Stage 1-4 pass is all-or-nothing: no s value
			// completed.
			timeoutDiag(start, 0, len(distinct), *timeout, err)
		}
		fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
		os.Exit(2)
	}
	results := make(map[int]*hyperline.Result, len(qr.Entries))
	for _, e := range qr.Entries {
		results[e.S] = e.Result
	}

	if sweepMeasure != nil {
		done, err := emitSweepTable(ctx, results, distinct, sweepMeasure, sweepParams, *top, *workers)
		if err != nil {
			if isContextErr(err) {
				timeoutDiag(start, done, len(distinct), *timeout, err)
			}
			fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
			os.Exit(2)
		}
	}

	var outFile *os.File
	var outBuf *bufio.Writer
	if *out != "" {
		if outFile, err = os.Create(*out); err != nil {
			fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
			os.Exit(1)
		}
		outBuf = bufio.NewWriter(outFile)
	}

	multi := len(distinct) > 1
	for k, sVal := range distinct {
		if err := ctx.Err(); err != nil {
			// Everything is computed by now — only the reporting loop
			// is being cut off. Flush what was already written so the
			// partial -out file really is trustworthy up to this s.
			if outBuf != nil {
				outBuf.Flush()
				outFile.Close()
			}
			timeoutDiag(start, k, len(distinct), *timeout, err)
		}
		res := results[sVal]
		fmt.Fprintf(diag, "s=%d line graph: %d nodes, %d edges\n", sVal, res.Graph.NumNodes(), res.Graph.NumEdges())
		fmt.Fprintf(diag, "plan: %s (%s)\n", res.Plan.Strategy, res.Plan.Reason)
		fmt.Fprintf(diag, "stages: preprocess=%v toplex=%v s-overlap=%v squeeze=%v total=%v\n",
			res.Timings.Preprocess, res.Timings.Toplex, res.Timings.SOverlap,
			res.Timings.Squeeze, res.Timings.Total())
		fmt.Fprintf(diag, "work: wedges=%d set-intersections=%d pruned=%d\n",
			res.Stats.Wedges, res.Stats.SetIntersections, res.Stats.Pruned)
		if *measureName == "" {
			if err := printMetrics(res, *metrics, *workers); err != nil {
				fmt.Fprintf(os.Stderr, "slinegraph: %v\n", err)
				os.Exit(2)
			}
		}
		if outBuf != nil {
			for _, e := range res.Graph.Edges() {
				if multi {
					fmt.Fprintf(outBuf, "%d %d %d %d\n", sVal, res.HyperedgeID(e.U), res.HyperedgeID(e.V), e.W)
				} else {
					fmt.Fprintf(outBuf, "%d %d %d\n", res.HyperedgeID(e.U), res.HyperedgeID(e.V), e.W)
				}
			}
		}
	}
	if outFile != nil {
		if err := outBuf.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "slinegraph: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		if err := outFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "slinegraph: closing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(diag, "edge list written to %s\n", *out)
	}
}

// isContextErr reports whether err is a cancellation or deadline
// failure of the root context.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// timeoutDiag prints partial-sweep diagnostics to stderr on context
// expiry and exits non-zero: how far the sweep got, how long it ran,
// and the configured limit — the operator-facing trail of a query that
// was deliberately cut off.
func timeoutDiag(start time.Time, completed, total int, timeout time.Duration, err error) {
	what := "cancelled"
	if errors.Is(err, context.DeadlineExceeded) {
		what = "timed out"
	}
	fmt.Fprintf(os.Stderr, "slinegraph: %s after %v (limit %v): %d/%d s values completed; partial output above this line is trustworthy, the rest was aborted\n",
		what, time.Since(start).Round(time.Millisecond), timeout, completed, total)
	os.Exit(1)
}

// emitSweepTable evaluates the resolved measure on every projection of
// the sweep and writes the paper-style table to stdout — the same
// code path the golden-file tests pin byte-for-byte. It returns how
// many s values finished evaluating, for partial-sweep diagnostics
// when the context expires mid-sweep.
func emitSweepTable(ctx context.Context, results map[int]*hyperline.Result, distinct []int, m measure.Measure, p measure.Params, top, workers int) (int, error) {
	sweep := make([]*hyperline.Result, len(distinct))
	for i, sVal := range distinct {
		sweep[i] = results[sVal]
	}
	vals, errs := measure.ComputeSweep(ctx, m, p, sweep, par.Options{Workers: workers})
	completed := 0
	for _, err := range errs {
		if err == nil {
			completed++
		}
	}
	rows := make([]measure.SweepRow, len(distinct))
	for i, res := range sweep {
		if errs[i] != nil {
			return completed, fmt.Errorf("s=%d: %w", res.S, errs[i])
		}
		rows[i] = measure.SweepRow{
			S:            res.S,
			Nodes:        res.Graph.NumNodes(),
			Edges:        res.Graph.NumEdges(),
			HyperedgeIDs: res.HyperedgeIDs,
			Value:        vals[i],
		}
	}
	return completed, measure.WriteSweepTable(os.Stdout, m.Name(), p, top, rows)
}

func printMetrics(res *hyperline.Result, metrics string, workers int) error {
	for _, m := range strings.Split(metrics, ",") {
		switch strings.TrimSpace(m) {
		case "", "none":
		case "cc":
			t0 := time.Now()
			cc := hyperline.SConnectedComponents(res)
			fmt.Printf("s-connected components: %d (%v)\n", cc.Count, time.Since(t0))
		case "bc":
			t0 := time.Now()
			bc := hyperline.NormalizeBetweenness(hyperline.SBetweenness(res, workers))
			type sc struct {
				id    uint32
				score float64
			}
			var top []sc
			for node, b := range bc {
				top = append(top, sc{res.HyperedgeID(uint32(node)), b})
			}
			sort.Slice(top, func(i, j int) bool { return top[i].score > top[j].score })
			fmt.Printf("s-betweenness centrality (%v), top 5:\n", time.Since(t0))
			for i := 0; i < len(top) && i < 5; i++ {
				fmt.Printf("  hyperedge %d: %.4f\n", top[i].id, top[i].score)
			}
		case "pagerank":
			t0 := time.Now()
			pr := hyperline.PageRank(res.Graph, workers)
			best, bestScore := uint32(0), -1.0
			for node, p := range pr {
				if p > bestScore {
					best, bestScore = res.HyperedgeID(uint32(node)), p
				}
			}
			fmt.Printf("PageRank (%v): top hyperedge %d (%.6f)\n", time.Since(t0), best, bestScore)
		case "connectivity":
			t0 := time.Now()
			lam := hyperline.NormalizedAlgebraicConnectivity(res.Graph)
			fmt.Printf("normalized algebraic connectivity: %.6f (%v)\n", lam, time.Since(t0))
		default:
			return fmt.Errorf("unknown metric %q", m)
		}
	}
	return nil
}
