package serve

import (
	"os"
	"path/filepath"
	"testing"

	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

// restoreFixture lays out a state directory with one dataset file inside
// it, datasets/in.bin, and a second .bin file beside the directory,
// outside.bin. The two hold different hypergraphs, so a restored dataset
// shows which file it was mapped from. It returns the state directory
// and the inside hypergraph.
func restoreFixture(t testing.TB) (string, *hg.Hypergraph) {
	t.Helper()
	root := t.TempDir()
	state := filepath.Join(root, "state")
	if err := os.MkdirAll(filepath.Join(state, stateDatasetsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	inside := randomHypergraph(3, 10, 12, 3)
	if err := hgio.SaveFile(filepath.Join(state, stateDatasetsDir, "in.bin"), inside); err != nil {
		t.Fatal(err)
	}
	if err := hgio.SaveFile(filepath.Join(root, "outside.bin"), paperExample()); err != nil {
		t.Fatal(err)
	}
	return state, inside
}

// FuzzRestoreManifest: for any manifest bytes, RestoreState never
// panics, and every dataset it registers was mapped from inside the
// state directory — never from a file a "../" or absolute path in the
// manifest points at.
func FuzzRestoreManifest(f *testing.F) {
	for _, seed := range []string{
		`{"format_version":1,"next_version":3,"datasets":[{"name":"in","version":2,"file":"datasets/in.bin"}]}`,
		`{"format_version":1,"next_version":3,"datasets":[{"name":"out","version":2,"file":"../outside.bin"}]}`,
		`{"format_version":1,"datasets":[{"name":"out","version":1,"file":"datasets/../../outside.bin"},{"name":"in","version":1,"file":"datasets/in.bin"}]}`,
		`{"format_version":1,"datasets":[{"name":"d","version":1,"file":"datasets"},{"name":"m","version":1,"file":"manifest.json"}]}`,
		`{"format_version":1,"datasets":[{"name":"e","version":0,"file":""},{"name":"n","version":1,"file":"datasets/none.bin"}]}`,
		`{"format_version":2}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		state, inside := restoreFixture(t)
		if err := os.WriteFile(filepath.Join(state, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		svc := New(Config{})
		defer svc.Close()
		names, _ := svc.RestoreState(state)
		for _, name := range names {
			h, err := svc.Hypergraph(name)
			if err != nil {
				t.Fatalf("restored %q is not registered: %v", name, err)
			}
			if h.NumEdges() != inside.NumEdges() || h.Incidences() != inside.Incidences() {
				t.Fatalf("restored %q has %d hyperedges and %d incidences: it was mapped from outside the state directory",
					name, h.NumEdges(), h.Incidences())
			}
		}
	})
}
