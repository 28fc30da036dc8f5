package flightrec

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"loggrep/internal/obsv"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testRecorder returns a recorder with a temp dir, tiny rings, a private
// registry, and no cooldown (1ns) so tests can dump repeatedly.
func testRecorder(t *testing.T, mut func(*Config)) *Recorder {
	t.Helper()
	cfg := Config{
		Dir:           t.TempDir(),
		eventRingSize: 16,
		cooldown:      time.Nanosecond,
		Registry:      obsv.NewRegistry(),
		Static:        map[string]any{"addr": ":8080"},
	}
	if mut != nil {
		mut(&cfg)
	}
	return NewRecorder(cfg)
}

func bundleFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, bundlePrefix+"*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitForBundles polls until dir holds want bundles (async triggers).
func waitForBundles(t *testing.T, dir string, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := bundleFiles(t, dir)
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("dir has %d bundles, want %d", len(got), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDumpWritesLoadableBundle: a manual dump produces a bundle carrying
// events, metrics, counters, config, state, and a goroutine dump.
func TestDumpWritesLoadableBundle(t *testing.T) {
	reg := obsv.NewRegistry()
	r := testRecorder(t, func(c *Config) {
		c.Registry = reg
		c.StateFn = func() any { return []string{"prod", "web"} }
	})
	reg.Counter("loggrep_http_requests_total", "t").Add(3)
	for i := 0; i < 4; i++ {
		r.Record(&obsv.WideEvent{TraceID: "00c0ffee00c0ffee", Endpoint: "query",
			DurNS: int64(i+1) * 1000, Status: 200,
			Spans: []obsv.Span{{Name: "filter", DurNS: 500}}})
	}
	r.Sample()
	path, err := r.TriggerDump("manual")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	m := b.Manifest
	if m.SchemaVersion != BundleSchemaVersion || m.Trigger != "manual" || m.Seq != 1 {
		t.Errorf("manifest = %+v", m)
	}
	if m.EventCount != 4 || len(b.Events) != 4 {
		t.Errorf("event count = %d/%d, want 4", m.EventCount, len(b.Events))
	}
	if m.MetricCount != 1 || len(b.Metrics) != 1 {
		t.Errorf("metric count = %d/%d, want 1", m.MetricCount, len(b.Metrics))
	}
	if b.Counters["loggrep_http_requests_total"] != 3 {
		t.Errorf("counters = %v", b.Counters)
	}
	if b.Config["addr"] != ":8080" {
		t.Errorf("config = %v", b.Config)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Error("bundle lacks a goroutine dump")
	}
	state, ok := b.State.([]any)
	if !ok || len(state) != 2 {
		t.Errorf("state = %#v", b.State)
	}
	st := r.Status()
	if st.BundlesWritten != 1 || st.LastTrigger != "manual" || st.LastBundle != path {
		t.Errorf("status = %+v", st)
	}
}

// TestDumpCoalesce: concurrent triggers — double SIGQUIT, trigger
// during dump — must produce exactly one bundle, never interleaved
// writes. Run under -race in CI.
func TestDumpCoalesce(t *testing.T) {
	r := testRecorder(t, func(c *Config) { c.cooldown = time.Hour })
	r.Record(&obsv.WideEvent{DurNS: 1})

	const n = 32
	var wg sync.WaitGroup
	paths := make(chan string, n)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := r.TriggerDump("sigquit")
			if err != nil {
				errc <- err
				return
			}
			paths <- p
		}()
	}
	wg.Wait()
	close(paths)
	close(errc)

	var wrote []string
	for p := range paths {
		wrote = append(wrote, p)
	}
	if len(wrote) != 1 {
		t.Fatalf("%d dumps wrote bundles, want exactly 1", len(wrote))
	}
	for err := range errc {
		if !errors.Is(err, ErrDumpInProgress) && !errors.Is(err, ErrCooldown) {
			t.Fatalf("unexpected dump error: %v", err)
		}
	}
	files := bundleFiles(t, r.cfg.Dir)
	if len(files) != 1 {
		t.Fatalf("dir has %d bundles, want 1: %v", len(files), files)
	}
	// The surviving bundle must be intact (no interleaved writes).
	if _, err := LoadBundle(files[0]); err != nil {
		t.Fatalf("coalesced bundle is corrupt: %v", err)
	}
	if st := r.Status(); st.BundlesWritten != 1 || st.DumpsSuppressed != n-1 {
		t.Errorf("status = %+v, want 1 written / %d suppressed", st, n-1)
	}

	// And the cooldown now holds: the next trigger is suppressed too.
	if _, err := r.TriggerDump("sigquit"); !errors.Is(err, ErrCooldown) {
		t.Fatalf("dump within cooldown returned %v, want ErrCooldown", err)
	}
}

// TestLatencyTrigger: a request over the threshold dumps, a fast one
// doesn't.
func TestLatencyTrigger(t *testing.T) {
	r := testRecorder(t, func(c *Config) { c.LatencyTrigger = 50 * time.Millisecond })
	r.Record(&obsv.WideEvent{DurNS: int64(time.Millisecond)})
	time.Sleep(20 * time.Millisecond)
	if got := bundleFiles(t, r.cfg.Dir); len(got) != 0 {
		t.Fatalf("fast request triggered a dump: %v", got)
	}
	r.Record(&obsv.WideEvent{DurNS: int64(time.Second), Endpoint: "query"})
	files := waitForBundles(t, r.cfg.Dir, 1)
	b, err := LoadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "latency" {
		t.Errorf("trigger = %q, want latency", b.Manifest.Trigger)
	}
}

// TestErrorSpikeTrigger: N fast 5xx responses within the window dump
// once; sub-threshold counts don't.
func TestErrorSpikeTrigger(t *testing.T) {
	r := testRecorder(t, func(c *Config) { c.ErrorBurst = 3; c.cooldown = time.Hour })
	r.Record(&obsv.WideEvent{Status: 503})
	r.Record(&obsv.WideEvent{Status: 200}) // non-5xx doesn't count
	r.Record(&obsv.WideEvent{Status: 500})
	time.Sleep(20 * time.Millisecond)
	if got := bundleFiles(t, r.cfg.Dir); len(got) != 0 {
		t.Fatalf("2 errors triggered a dump: %v", got)
	}
	r.Record(&obsv.WideEvent{Status: 504})
	files := waitForBundles(t, r.cfg.Dir, 1)
	b, err := LoadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "error-spike" {
		t.Errorf("trigger = %q, want error-spike", b.Manifest.Trigger)
	}
}

// TestBudgetBurstTrigger: budget-exhausted partial results trip their
// own trigger.
func TestBudgetBurstTrigger(t *testing.T) {
	r := testRecorder(t, func(c *Config) { c.BudgetBurst = 2 })
	r.Record(&obsv.WideEvent{Status: 200, Partial: true, PartialReason: "scan budget exhausted"})
	r.Record(&obsv.WideEvent{Status: 200, Partial: true, PartialReason: "scan budget exhausted"})
	files := waitForBundles(t, r.cfg.Dir, 1)
	b, err := LoadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "budget-burst" {
		t.Errorf("trigger = %q, want budget-burst", b.Manifest.Trigger)
	}
}

// TestPanicRecordAndTrigger: RecordPanic keeps bounded panic info and
// dumps.
func TestPanicRecordAndTrigger(t *testing.T) {
	// Long cooldown: the repeated panics below must coalesce into one
	// bundle, and no dump goroutine may outlive the test.
	r := testRecorder(t, func(c *Config) { c.cooldown = time.Hour })
	big := bytes.Repeat([]byte("s"), maxPanicStack+100)
	for i := 0; i < maxPanicsKept+2; i++ {
		r.RecordPanic("query", "boom", big)
	}
	files := waitForBundles(t, r.cfg.Dir, 1)
	b, err := LoadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Panics) == 0 || b.Manifest.Trigger != "panic" {
		t.Fatalf("bundle = trigger %q, %d panics", b.Manifest.Trigger, len(b.Panics))
	}
	if got := len(r.panicsSnapshot()); got != maxPanicsKept {
		t.Errorf("kept %d panics, want %d", got, maxPanicsKept)
	}
	for _, p := range r.panicsSnapshot() {
		if len(p.Stack) > maxPanicStack {
			t.Errorf("stack not truncated: %d bytes", len(p.Stack))
		}
		if p.Value != "boom" || p.Endpoint != "query" {
			t.Errorf("panic info = %+v", p)
		}
	}
}

// TestRetention: bundles beyond maxBundles are pruned oldest-first.
func TestRetention(t *testing.T) {
	r := testRecorder(t, func(c *Config) { c.maxBundles = 2 })
	var last string
	for i := 0; i < 5; i++ {
		p, err := r.TriggerDump("manual")
		if err != nil {
			t.Fatal(err)
		}
		last = p
		time.Sleep(2 * time.Millisecond) // distinct timestamps for ordering
	}
	files := bundleFiles(t, r.cfg.Dir)
	if len(files) != 2 {
		t.Fatalf("dir has %d bundles after retention, want 2: %v", len(files), files)
	}
	found := false
	for _, f := range files {
		if f == last {
			found = true
		}
	}
	if !found {
		t.Fatalf("newest bundle %s was pruned; kept %v", last, files)
	}
}

// TestManifestGolden pins the manifest schema — the stable field set
// tooling greps and jq's for. Regenerate with -update.
func TestManifestGolden(t *testing.T) {
	m := Manifest{
		SchemaVersion: BundleSchemaVersion,
		Trigger:       "sigquit",
		Seq:           3,
		Time:          "2026-01-02T03:04:05Z",
		Version:       "v1.2.3",
		Commit:        "abcdef0",
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		PID:           4242,
		EventCount:    256,
		MetricCount:   600,
		PanicCount:    1,
	}
	got, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "manifest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("manifest schema drifted (run with -update if intended)\ngot:  %s\nwant: %s", got, want)
	}
}

// TestLoadBundleRejects: not-a-bundle files and future schema versions
// fail cleanly.
func TestLoadBundleRejects(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "nope.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if _, err := LoadBundle(bad); err == nil {
		t.Error("garbage file loaded as a bundle")
	}
	future := filepath.Join(dir, "future.json")
	os.WriteFile(future, []byte(`{"manifest":{"schema_version":99}}`), 0o644)
	if _, err := LoadBundle(future); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Errorf("future schema accepted: %v", err)
	}
}

// TestSampleDeltas: per-second samples carry only the counters that
// moved, as deltas.
func TestSampleDeltas(t *testing.T) {
	reg := obsv.NewRegistry()
	c := reg.Counter("x_total", "x")
	idle := reg.Counter("idle_total", "never moves")
	_ = idle
	r := testRecorder(t, func(c *Config) { c.Registry = reg })
	c.Add(5)
	r.Sample()
	c.Add(2)
	r.Sample()
	r.Sample() // idle second

	samples := r.metrics.Snapshot()
	if len(samples) != 3 {
		t.Fatalf("%d samples, want 3", len(samples))
	}
	if d := samples[0].CounterDeltas; d["x_total"] != 5 {
		t.Errorf("first delta = %v, want x_total=5", d)
	}
	if d := samples[1].CounterDeltas; d["x_total"] != 2 || len(d) != 1 {
		t.Errorf("second delta = %v, want x_total=2 only", d)
	}
	if d := samples[2].CounterDeltas; len(d) != 0 {
		t.Errorf("idle second has deltas: %v", d)
	}
	if samples[0].Goroutines <= 0 {
		t.Errorf("sample lacks runtime stats: %+v", samples[0])
	}
}

// TestNilRecorder: every method on a nil recorder is inert.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(&obsv.WideEvent{})
	r.RecordPanic("x", "boom", nil)
	r.Sample()
	r.Start()
	r.Stop()
	if st := r.Status(); st.Enabled {
		t.Error("nil recorder reports enabled")
	}
	if _, err := r.TriggerDump("manual"); err == nil {
		t.Error("nil recorder dumped")
	}
}

// TestStartStop: the sampler runs and halts cleanly.
func TestStartStop(t *testing.T) {
	r := testRecorder(t, func(c *Config) { c.sampleInterval = 2 * time.Millisecond })
	r.Start()
	deadline := time.Now().Add(5 * time.Second)
	for r.metrics.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	n := r.metrics.Len()
	time.Sleep(10 * time.Millisecond)
	if r.metrics.Len() != n {
		t.Error("sampler still running after Stop")
	}
}
