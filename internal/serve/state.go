package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"hyperline/internal/hg"
	"hyperline/internal/hgio"
)

// Snapshot/restore: a graceful shutdown persists the registry into a
// state directory — each dataset as a binary-format file plus a
// manifest recording name → version → file and the version counter —
// and flushes the in-memory caches through the spill store. A
// subsequent boot maps the dataset files back (O(pages touched), not
// O(bytes)) under their *original* versions, so every cache key minted
// before the restart still names the same entry and the spill tier
// turns first-pass memory misses into disk hits: a warm start.
//
// The manifest is advisory for the spill tier (the spill directory
// indexes itself) but authoritative for the registry: version reuse is
// what makes warmth possible, and the preserved next_version counter
// keeps post-restore replacements from colliding with restored keys.

// manifestName is the registry manifest file inside a state directory.
const manifestName = "manifest.json"

// stateDatasetsDir holds the persisted dataset files.
const stateDatasetsDir = "datasets"

// stateManifest is the serialized registry.
type stateManifest struct {
	FormatVersion int               `json:"format_version"`
	NextVersion   uint64            `json:"next_version"`
	Datasets      []manifestDataset `json:"datasets"`
}

// manifestDataset records one dataset: File is relative to the state
// directory.
type manifestDataset struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	File    string `json:"file"`
}

// datasetFileName is the stable, filesystem-safe location for one
// dataset version (names are user-controlled; versions make replaced
// datasets land in distinct files).
func datasetFileName(name string, version uint64) string {
	sum := sha256.Sum256([]byte(name))
	return filepath.Join(stateDatasetsDir, fmt.Sprintf("%s@%d.bin", hex.EncodeToString(sum[:8]), version))
}

// SaveState persists the registry and flushes both caches through the
// spill store (when one is attached) so a subsequent RestoreState boots
// warm. Dataset files already present from a previous save of the same
// version are reused, so repeated snapshots of a stable registry cost
// one manifest write.
func (s *Service) SaveState(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, stateDatasetsDir), 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	snap, nextVer := s.reg.snapshot()
	m := stateManifest{FormatVersion: 1, NextVersion: nextVer}
	for _, d := range snap {
		rel := datasetFileName(d.name, d.version)
		path := filepath.Join(dir, rel)
		if _, err := os.Stat(path); err != nil {
			if err := saveBinaryAtomic(dir, path, d.v.Flat()); err != nil {
				return fmt.Errorf("serve: persisting dataset %q: %w", d.name, err)
			}
		}
		m.Datasets = append(m.Datasets, manifestDataset{Name: d.name, Version: d.version, File: rel})
	}

	s.cache.flushToSpill()
	s.mcache.flushToSpill()

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, spillTmpPrefix+"manifest-*")
	if err != nil {
		return fmt.Errorf("serve: writing manifest: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: writing manifest: %w", err)
	}
	if err := os.Rename(name, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: writing manifest: %w", err)
	}
	return nil
}

// saveBinaryAtomic writes h to path via a tmp file in dir so a crash
// mid-save never leaves a torn dataset file behind a manifest that
// names it.
func saveBinaryAtomic(dir, path string, h *hg.Hypergraph) error {
	tmp, err := os.CreateTemp(dir, spillTmpPrefix+"ds-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	err = hgio.WriteBinary(tmp, h)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// RestoreState rehydrates the registry from a state directory written
// by SaveState: dataset files are mapped (not parsed — boot time is
// O(pages touched)) and registered under their original versions, so
// cache keys minted before the restart remain valid and spilled entries
// hit. A missing manifest is a cold start, not an error. Returns the
// restored dataset names.
//
// Restore is resilient to a crash mid-snapshot: stray tmp files from an
// interrupted save are swept, and a corrupt or truncated dataset file
// only costs that one dataset (skipped with a log line — a -load flag or
// re-upload re-registers it cold) rather than aborting the whole boot.
// An entry whose file is not a local path (filepath.IsLocal: absolute,
// empty, or climbing out through "..") is skipped the same way, so a
// manifest never maps a file from outside dir.
// Likewise a manifest that no longer parses degrades to a cold start.
func (s *Service) RestoreState(dir string) ([]string, error) {
	sweepStateTmp(dir)
	sweepStateTmp(filepath.Join(dir, stateDatasetsDir))
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading manifest: %w", err)
	}
	var m stateManifest
	if err := json.Unmarshal(data, &m); err != nil {
		log.Printf("serve: state manifest in %s is corrupt (%v); starting cold", dir, err)
		return nil, nil
	}
	if m.FormatVersion != 1 {
		return nil, fmt.Errorf("serve: unsupported state format %d", m.FormatVersion)
	}
	var names []string
	for _, d := range m.Datasets {
		if !filepath.IsLocal(d.File) {
			log.Printf("serve: skipping dataset %q during restore: file %q is not a local path under %s", d.Name, d.File, dir)
			continue
		}
		h, err := hgio.MapBinary(filepath.Join(dir, d.File))
		if err != nil {
			log.Printf("serve: skipping dataset %q during restore: %v", d.Name, err)
			continue
		}
		s.reg.addRestored(d.Name, h, d.Version)
		names = append(names, d.Name)
	}
	s.reg.bumpNextVersion(m.NextVersion)
	return names, nil
}

// sweepStateTmp removes in-progress tmp files a crash mid-SaveState can
// strand next to the manifest and dataset files. Missing directories
// and remove races are ignored — the sweep is best-effort hygiene.
func sweepStateTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		if !de.IsDir() && strings.HasPrefix(de.Name(), spillTmpPrefix) {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}

// Close releases out-of-heap resources deterministically: every mapped
// dataset is unmapped. Callers must have drained in-flight queries
// first (the daemon closes after http.Server.Shutdown returns). A
// computation can outlive its callers (a shared flight whose last
// waiter left keeps running until it next polls its context), so Close
// first cancels every flight and waits for all of them to return;
// queries after Close fail. Safe to call once; datasets dropped earlier
// by Remove are unmapped by their GC finalizer instead.
func (s *Service) Close() error {
	s.sf.close()
	s.msf.close()
	var first error
	for _, d := range s.reg.drain() {
		if err := d.v.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
