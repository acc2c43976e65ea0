package hyperline_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"hyperline"
	"hyperline/internal/measure"
)

// goldenCases are the end-to-end paper-fidelity guard: tiny checked-in
// datasets swept through Stages 1-5, with the resulting tables pinned
// byte-for-byte. Any drift in preprocessing, the s-overlap strategies,
// the CSR build, or the measures shows up as a diff here.
var goldenCases = []struct {
	golden  string // file under testdata/golden
	dataset string // file under testdata
	measure string
	sSpec   string
	top     int
}{
	{"community_components_s1-5.tsv", "tiny_community.adj", "components", "1:5", 5},
	{"authors_diameter_s1-5.tsv", "tiny_authors.adj", "diameter", "1:5", 5},
	{"authors_harmonic_top5_s1-5.tsv", "tiny_authors.adj", "harmonic", "1:5", 5},
}

// TestGoldenSweepTables drives the sweep through the public Session
// API (the same engine the server uses) and compares the rendered
// tables against the checked-in goldens.
func TestGoldenSweepTables(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			sess := hyperline.NewSession(hyperline.SessionOptions{})
			if err := sess.Load("d", filepath.Join("testdata", tc.dataset)); err != nil {
				t.Fatal(err)
			}
			sweep, err := hyperline.ParseSValues(tc.sSpec)
			if err != nil {
				t.Fatal(err)
			}
			qr, err := sess.Execute(context.Background(), hyperline.Query{Dataset: "d", S: sweep, Measure: tc.measure})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]measure.SweepRow, len(qr.Entries))
			for i, e := range qr.Entries {
				if e.Err != nil {
					t.Fatalf("s=%d: %v", e.S, e.Err)
				}
				r := e.Measure
				rows[i] = measure.SweepRow{
					S: r.S, Nodes: r.Nodes, Edges: r.Edges,
					HyperedgeIDs: r.HyperedgeIDs, Value: r.Value,
				}
			}
			var got bytes.Buffer
			if err := measure.WriteSweepTable(&got, tc.measure, nil, tc.top, rows); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("sweep table drifted from %s:\ngot:\n%s\nwant:\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}

// TestGoldenSweepCLI builds cmd/slinegraph and checks that
// `-measure M -s LIST` reproduces the goldens byte-for-byte on stdout
// — the acceptance path users script against.
func TestGoldenSweepCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "slinegraph")
	build := exec.Command("go", "build", "-o", bin, "./cmd/slinegraph")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building slinegraph: %v\n%s", err, out)
	}
	for _, tc := range goldenCases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(bin,
				"-in", filepath.Join("testdata", tc.dataset),
				"-s", tc.sSpec, "-measure", tc.measure)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("slinegraph: %v\nstderr: %s", err, stderr.Bytes())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("CLI sweep table drifted from %s:\ngot:\n%s\nwant:\n%s", tc.golden, stdout.Bytes(), want)
			}
		})
	}
}
