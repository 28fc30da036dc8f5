package flightrec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loggrep/internal/obsv"
)

// fixtureBundle builds a deterministic bundle with a latency spike, an
// error, and span data — enough for every story section to render.
func fixtureBundle() *Bundle {
	b := &Bundle{
		Manifest: Manifest{
			SchemaVersion: BundleSchemaVersion, Trigger: "latency", Seq: 2,
			Time: "2026-08-05T10:00:00Z", Version: "dev", Commit: "unknown",
			GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", PID: 99,
		},
		Counters: map[string]int64{`loggrep_http_requests_total{endpoint="query"}`: 40},
		Panics:   []PanicInfo{{Time: "2026-08-05T09:59:59Z", Endpoint: "query", Value: "boom", Stack: "stack"}},
	}
	for i := 0; i < 10; i++ {
		b.Events = append(b.Events, obsv.WideEvent{
			TraceID: "00c0ffee00c0ffee", Endpoint: "query", Source: "prod",
			Command: "ERROR AND state:503", Status: 200,
			DurNS: int64(100_000 * (i + 1)),
			Spans: []obsv.Span{
				{Name: "filter", DurNS: int64(60_000 * (i + 1))},
				{Name: "verify", DurNS: int64(30_000 * (i + 1))},
			},
		})
	}
	b.Events[3].Status = 503
	b.Events[5].Partial = true
	for i := 0; i < 30; i++ {
		s := MetricSample{
			UnixMilli: int64(1_000 * i), Goroutines: 10 + i%7,
			HeapInuse: uint64(20<<20 + i<<18), GCPauseNS: uint64(i) * 1000, NumGC: uint32(i),
		}
		if i%3 == 0 {
			s.CounterDeltas = map[string]int64{`loggrep_http_requests_total{endpoint="query"}`: int64(i)}
		}
		b.Metrics = append(b.Metrics, s)
	}
	b.Manifest.EventCount = len(b.Events)
	b.Manifest.MetricCount = len(b.Metrics)
	b.Manifest.PanicCount = 1
	return b
}

func TestSummary(t *testing.T) {
	s := fixtureBundle().Summary()
	if s.Requests != 10 || s.Errors != 1 || s.Partial != 1 {
		t.Errorf("summary counts = %d req / %d err / %d partial", s.Requests, s.Errors, s.Partial)
	}
	if s.WindowSeconds != 29 {
		t.Errorf("window = %ds, want 29", s.WindowSeconds)
	}
	if len(s.Slowest) != maxSlowest || s.Slowest[0].DurNS != 1_000_000 {
		t.Errorf("slowest = %d entries, first %d ns", len(s.Slowest), s.Slowest[0].DurNS)
	}
	if len(s.Stages) != 2 || s.Stages[0].Name != "filter" || s.Stages[0].Count != 10 {
		t.Errorf("stages = %+v", s.Stages)
	}
	if s.MaxGoroutines != 16 {
		t.Errorf("max goroutines = %d, want 16", s.MaxGoroutines)
	}
	// Summary must be JSON-cleanly serializable (the diag -json path).
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

func TestStory(t *testing.T) {
	story := fixtureBundle().Story()
	for _, want := range []string{
		"trigger=latency",
		"metrics timeline",
		"goroutines",
		"heap MiB",
		"requests/s",
		"worst requests:",
		"00c0ffee00c0ffee",
		"prod: ERROR AND state:503",
		"stage breakdown",
		"filter",
		"verify",
		"panics: 1",
		"boom",
	} {
		if !strings.Contains(story, want) {
			t.Errorf("story missing %q:\n%s", want, story)
		}
	}
	// Sparklines actually vary with the data.
	if !strings.ContainsAny(story, "▁▂▃▄▅▆▇█") {
		t.Error("story has no sparkline characters")
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Errorf("empty series = %q", got)
	}
	flat := sparkline([]float64{5, 5, 5, 5}, 4)
	if flat != "▁▁▁▁" {
		t.Errorf("flat series = %q, want all-low", flat)
	}
	ramp := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if ramp != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp = %q", ramp)
	}
	// Longer than width: columns take the max of their bucket.
	wide := sparkline([]float64{0, 9, 0, 0, 0, 0, 0, 0}, 4)
	if []rune(wide)[0] != '█' {
		t.Errorf("bucketed max lost the spike: %q", wide)
	}
}

// TestBundleStoryRoundTrip: a real dump renders end-to-end.
func TestBundleStoryRoundTrip(t *testing.T) {
	r := testRecorder(t, nil)
	r.Record(&obsv.WideEvent{TraceID: "feedfacefeedface", Endpoint: "query",
		Command: "ERROR", Status: 200, DurNS: 123456,
		Spans: []obsv.Span{{Name: "filter", DurNS: 100}}})
	r.Sample()
	path, err := r.TriggerDump("sigquit")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	story := b.Story()
	for _, want := range []string{"trigger=sigquit", "feedfacefeedface", "filter"} {
		if !strings.Contains(story, want) {
			t.Errorf("story missing %q:\n%s", want, story)
		}
	}
}

func TestRotatingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.log")
	rf, err := OpenRotatingFile(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.Repeat("a", 39) + "\n" // 40 bytes
	for i := 0; i < 4; i++ {               // 160 bytes total: rotates once after 80
		if _, err := rf.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("no rotated generation: %v", err)
	}
	if len(cur)+len(old) != 160 {
		t.Errorf("bytes split %d + %d, want 160 total", len(cur), len(old))
	}
	if len(cur) == 0 || len(old) == 0 || len(old) > 100 {
		t.Errorf("rotation split wrong: cur=%d old=%d", len(cur), len(old))
	}

	// Reopening appends and keeps honoring the bound.
	rf2, err := OpenRotatingFile(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rf2.Write([]byte(line))
	}
	rf2.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 100 {
		t.Errorf("live file %d bytes, bound 100", st.Size())
	}
}

// TestAtomicWriteFile: the bundle writer publishes each dump atomically —
// every file in the bundle directory is a whole, loadable bundle with mode
// 0644, and no temp file is left behind.
func TestAtomicWriteFile(t *testing.T) {
	r := testRecorder(t, nil)
	r.Record(&obsv.WideEvent{TraceID: "00c0ffee00c0ffee", Endpoint: "query", Status: 200})
	for _, trigger := range []string{"manual", "sigquit"} {
		if _, err := r.TriggerDump(trigger); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("dir has %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		path := filepath.Join(r.cfg.Dir, e.Name())
		if !strings.HasPrefix(e.Name(), bundlePrefix) {
			t.Errorf("temp litter %q", e.Name())
			continue
		}
		if _, err := LoadBundle(path); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode().Perm() != 0o644 {
			t.Errorf("%s: mode %v, want 0644", e.Name(), st.Mode().Perm())
		}
	}
}

// TestAtomicWriteFileSync: an overwrite publishes the new bytes and mode
// and leaves no temp file behind.
func TestAtomicWriteFileSync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := AtomicWriteFileSync(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFileSync(path, []byte("v2"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read %q, %v", got, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o600 {
		t.Errorf("mode %v, want 0600", st.Mode().Perm())
	}
	// No temp litter.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want 1", len(entries))
	}
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
}
