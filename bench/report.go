package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// report is what -all prints: every workload's untraced runs and its one
// traced run, under the header of the machine and build that made them.
type report struct {
	Header    header                    `json:"header"`
	Seconds   int                       `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Runs   []result `json:"runs"`   // untraced: end-to-end metrics
	Traced result   `json:"traced"` // per-layer metrics
}

// runAll runs each workload in a process of its own — a clean heap and its
// own peak RSS, exactly as the single-workload command runs it — runs times
// untraced and once traced, and prints the report as JSON.
func runAll(runs int, seed int64, seconds int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Header: newHeader(seed), Seconds: seconds, Workloads: make(map[string]workloadReport)}
	child := func(name string, trace int) (result, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("bench: %s (trace %d): %w", name, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return result{}, fmt.Errorf("bench: %s (trace %d): bad result line: %w", name, trace, err)
		}
		return res, nil
	}
	for _, spec := range workloads {
		var wr workloadReport
		for r := 0; r < runs; r++ {
			res, err := child(spec.name, 0)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, res)
		}
		if wr.Traced, err = child(spec.name, 1); err != nil {
			return err
		}
		rep.Workloads[spec.name] = wr
		fmt.Fprintf(os.Stderr, "bench: %s done\n", spec.name)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports prints, per workload and end-to-end metric, both reports'
// medians, their ratio, and a verdict against the bound in BENCHMARK.json
// (read from the working directory): REGRESSED when b is worse than a by
// more than the bound, UNRESOLVED when either report's own runs spread wider
// than the bound, PASS otherwise. Any REGRESSED row fails the command.
func compareReports(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("usage: bench -compare a.json b.json")
	}
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		return err
	}
	var a, b report
	if err := readJSON(paths[0], &a); err != nil {
		return err
	}
	if err := readJSON(paths[1], &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tverdict")
	regressed := 0
	for _, spec := range workloads {
		for _, m := range bf.EndToEnd {
			av, bv := metricValues(a, spec.name, m.Name), metricValues(b, spec.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			switch {
			case quartileSpread(av) > m.Bound || quartileSpread(bv) > m.Bound:
				verdict = "UNRESOLVED"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%.2f\t%s\n", spec.name, m.Name, am, bm, bm/am, m.Bound, verdict)
		}
	}
	tw.Flush()
	if regressed > 0 {
		return fmt.Errorf("bench: %d metric(s) regressed", regressed)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func metricValues(r report, workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Workloads[workload].Runs {
		if v, ok := run.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's statistics.quantiles(n=4)
// gives them — the acceptance rule's own measure of run-to-run spread. A
// single run has no spread to show.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
