package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"loggrep/internal/obsv"
	"loggrep/internal/version"
)

// BundleSchemaVersion is bumped whenever the bundle's JSON shape changes
// incompatibly; `loggrep diag` refuses versions it doesn't know. The
// manifest field set is pinned by a golden test.
const BundleSchemaVersion = 1

// bundlePrefix names bundle files: bundle-<utc timestamp>-<seq>-<trigger>.json.
// The timestamp leads so a lexical sort of the directory is chronological,
// which is what retention prunes by.
const bundlePrefix = "bundle-"

// Manifest identifies one bundle: what fired, when, and which build of
// which process wrote it.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Trigger       string `json:"trigger"`
	Seq           int    `json:"seq"`
	Time          string `json:"time"`
	Version       string `json:"version"`
	Commit        string `json:"commit"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	PID           int    `json:"pid"`
	EventCount    int    `json:"event_count"`
	MetricCount   int    `json:"metric_count"`
	PanicCount    int    `json:"panic_count,omitempty"`
}

// Bundle is one self-contained diagnostic dump: everything `loggrep
// diag` needs to tell the incident story without access to the process
// that wrote it.
type Bundle struct {
	Manifest   Manifest         `json:"manifest"`
	Config     map[string]any   `json:"config,omitempty"`
	State      any              `json:"state,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Events     []obsv.WideEvent `json:"events"`
	Metrics    []MetricSample   `json:"metrics"`
	Panics     []PanicInfo      `json:"panics,omitempty"`
	Goroutines string           `json:"goroutines"`
}

// writeBundle snapshots the rings and process state into one bundle file
// in cfg.Dir, written atomically (temp file + rename) so a reader never
// sees a partial bundle.
func (r *Recorder) writeBundle(trigger string, seq int) (string, error) {
	now := time.Now().UTC()
	b := &Bundle{
		Manifest: Manifest{
			SchemaVersion: BundleSchemaVersion,
			Trigger:       trigger,
			Seq:           seq,
			Time:          now.Format(time.RFC3339Nano),
			Version:       version.Version,
			Commit:        version.Commit,
			GoVersion:     runtime.Version(),
			GOOS:          runtime.GOOS,
			GOARCH:        runtime.GOARCH,
			PID:           os.Getpid(),
		},
		Config:     r.cfg.Static,
		Counters:   r.cfg.Registry.CounterValues(),
		Events:     r.events.Snapshot(),
		Metrics:    r.metrics.Snapshot(),
		Panics:     r.panicsSnapshot(),
		Goroutines: goroutineDump(),
	}
	if r.cfg.StateFn != nil {
		b.State = r.cfg.StateFn()
	}
	b.Manifest.EventCount = len(b.Events)
	b.Manifest.MetricCount = len(b.Metrics)
	b.Manifest.PanicCount = len(b.Panics)

	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s%s-%04d-%s.json",
		bundlePrefix, now.Format("20060102T150405.000"), seq, safeName(trigger))
	path := filepath.Join(r.cfg.Dir, name)
	if err := AtomicWriteFileSync(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// retain prunes the oldest bundles so at most maxBundles remain.
func (r *Recorder) retain() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), bundlePrefix) && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	if len(names) <= r.cfg.maxBundles {
		return
	}
	sort.Strings(names) // timestamp-first names: lexical == chronological
	for _, n := range names[:len(names)-r.cfg.maxBundles] {
		os.Remove(filepath.Join(r.cfg.Dir, n))
	}
}

// safeName keeps trigger reasons filename-clean.
func safeName(s string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		default:
			return '_'
		}
	}, s)
}

// goroutineDump captures every goroutine's stack (up to 1MB).
func goroutineDump() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return string(buf[:n])
}

// LoadBundle reads and decodes one bundle file, rejecting schema
// versions this build doesn't understand.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flightrec: %s is not a bundle: %w", path, err)
	}
	if b.Manifest.SchemaVersion != BundleSchemaVersion {
		return nil, fmt.Errorf("flightrec: %s has schema version %d, this build reads %d",
			path, b.Manifest.SchemaVersion, BundleSchemaVersion)
	}
	return &b, nil
}
