package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"loggrep/internal/core"
	"loggrep/internal/flightrec"
	"loggrep/internal/liveops"
	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
)

// newFlightRecServer is newTestServer with the flight recorder wired the
// way loggrepd wires it: private bundle dir, the server's source summary
// as live state, and a long cooldown so stray async dumps can't race the
// test dir's cleanup. mut adjusts the config before the recorder is built.
func newFlightRecServer(t *testing.T, mut func(*flightrec.Config)) (*httptest.Server, *Server, *flightrec.Recorder) {
	t.Helper()
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New()
	cfg := flightrec.Config{
		Dir:           filepath.Join(t.TempDir(), "flightrec"),
		EventRingSize: 32,
		Cooldown:      time.Hour,
		Registry:      obsv.NewRegistry(),
		StateFn:       func() any { return sv.SourcesSummary() },
	}
	if mut != nil {
		mut(&cfg)
	}
	rec := flightrec.NewRecorder(cfg)
	sv.FlightRec = rec
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts, sv, rec
}

// waitForServerBundles polls dir until n bundles exist (dump triggers are
// asynchronous).
func waitForServerBundles(t *testing.T, dir string, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, _ := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
		if len(m) >= n {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d bundle(s) in %s (have %d)", n, dir, len(m))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlightRecRecordsAllRequests: with only the recorder enabled (no
// event log), every request — including failures — lands in the ring.
func TestFlightRecRecordsAllRequests(t *testing.T) {
	ts, _, rec := newFlightRecServer(t, nil)
	lt, _ := loggen.ByName("A")
	getJSON(t, ts.URL+"/v1/query?source=boxA&q="+escape(lt.Query), http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/count?source=boxA&q=ERROR", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/query?source=nope&q=ERROR", http.StatusNotFound, nil)

	st := rec.Status()
	if st.EventsRecorded != 3 {
		t.Fatalf("events recorded = %d, want 3 (status %+v)", st.EventsRecorded, st)
	}
	path, err := rec.TriggerDump("test")
	if err != nil {
		t.Fatal(err)
	}
	b, err := flightrec.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 3 {
		t.Fatalf("bundle has %d events, want 3", len(b.Events))
	}
	// Recorder-only mode still forces traced execution: span timings must
	// be present on the successful query's event.
	if len(b.Events[0].Spans) == 0 {
		t.Errorf("query event has no spans: %+v", b.Events[0])
	}
	if b.Events[2].Status != http.StatusNotFound {
		t.Errorf("failed request not captured: %+v", b.Events[2])
	}
	// The live-state hook captured the loaded sources.
	state, _ := json.Marshal(b.State)
	if !strings.Contains(string(state), `"boxA"`) {
		t.Errorf("bundle state missing source summary: %s", state)
	}
}

// TestFlightRecStatusEndpoint covers /debug/flightrec for both an enabled
// and a disabled recorder.
func TestFlightRecStatusEndpoint(t *testing.T) {
	ts, _, _ := newFlightRecServer(t, nil)
	getJSON(t, ts.URL+"/v1/count?source=boxA&q=ERROR", http.StatusOK, nil)
	var st flightrec.Status
	getJSON(t, ts.URL+"/debug/flightrec", http.StatusOK, &st)
	// The status request itself is not buffered yet when rendered, so
	// expect exactly the count request plus ring shape.
	if !st.Enabled || st.EventCapacity != 32 || st.EventsRecorded < 1 {
		t.Fatalf("status = %+v", st)
	}

	// Disabled server: enabled=false, not a 404.
	plain, _ := newTestServer(t)
	var off flightrec.Status
	getJSON(t, plain.URL+"/debug/flightrec", http.StatusOK, &off)
	if off.Enabled {
		t.Fatalf("disabled recorder reports enabled: %+v", off)
	}
}

// TestDebugDumpEndpoint: POST /debug/dump writes a loadable bundle; a
// second POST inside the cooldown answers 429; GET answers 405; a server
// without a recorder answers 503.
func TestDebugDumpEndpoint(t *testing.T) {
	ts, _, _ := newFlightRecServer(t, nil)
	getJSON(t, ts.URL+"/v1/count?source=boxA&q=ERROR", http.StatusOK, nil)

	resp, err := http.Post(ts.URL+"/debug/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["bundle"] == "" {
		t.Fatalf("dump: status %d, body %v", resp.StatusCode, out)
	}
	b, err := flightrec.LoadBundle(out["bundle"])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "manual" || b.Manifest.EventCount < 1 {
		t.Fatalf("manifest = %+v", b.Manifest)
	}

	// Cooldown (1h in this fixture) suppresses the next manual dump.
	resp2, err := http.Post(ts.URL+"/debug/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("dump in cooldown: status %d, want 429", resp2.StatusCode)
	}

	getJSON(t, ts.URL+"/debug/dump", http.StatusMethodNotAllowed, nil)

	plain, _ := newTestServer(t)
	resp3, err := http.Post(plain.URL+"/debug/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dump without recorder: status %d, want 503", resp3.StatusCode)
	}
}

// TestPanicRecoveredAndDumped: a panicking handler is answered with a 500
// instead of a dropped connection, and the flight recorder writes a
// panic-triggered bundle carrying the stack. The panic is injected as the
// body of a real request lifecycle — panics on engine worker goroutines
// are out of recover's reach by design — so the request still finishes
// exactly one wide event: status 500 in the recorder's ring (and so in
// the bundle the panic triggers) and a bad event for the SLO engine.
func TestPanicRecoveredAndDumped(t *testing.T) {
	api, sv, rec := newFlightRecServer(t, nil)
	sv.Liveops = liveops.New(liveops.Config{
		Registry:   obsv.NewRegistry(),
		Objectives: []liveops.Objective{{Name: "availability", Target: 0.999, Window: 30 * 24 * time.Hour}},
	})
	ts := httptest.NewServer(sv.instrument("query", sv.lifecycle("query", false,
		func(http.ResponseWriter, *http.Request, *request) (int, string) {
			panic("injected read panic")
		})))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/query?source=arc&q=ERROR")
	if err != nil {
		t.Fatalf("panic tore down the connection: %v", err)
	}
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || body["error"] != "internal error" {
		t.Fatalf("panic response: status %d body %v", resp.StatusCode, body)
	}

	paths := waitForServerBundles(t, rec.Status().Dir, 1)
	b, err := flightrec.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "panic" || len(b.Panics) != 1 {
		t.Fatalf("bundle = %+v", b.Manifest)
	}
	p := b.Panics[0]
	if p.Endpoint != "query" || !strings.Contains(p.Value, "injected read panic") || !strings.Contains(p.Stack, "goroutine") {
		t.Fatalf("panic info = %+v", p)
	}
	if len(b.Events) != 1 || b.Events[0].Status != http.StatusInternalServerError ||
		b.Events[0].Endpoint != "query" || b.Events[0].TraceID != resp.Header.Get("X-Trace-Id") {
		t.Fatalf("panicking request's wide event missing from the ring: %+v", b.Events)
	}
	var slo struct {
		Objectives []liveops.ObjectiveStatus `json:"objectives"`
	}
	getJSON(t, api.URL+"/v1/slo", http.StatusOK, &slo)
	if len(slo.Objectives) != 1 || slo.Objectives[0].Bad != 1 {
		t.Fatalf("/v1/slo did not count the panic as a bad event: %+v", slo.Objectives)
	}

	// The panics counter moved (it is process-global, so only monotonicity
	// is asserted).
	resp2, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(metrics), "loggrep_http_panics_total") {
		t.Error("/metrics missing loggrep_http_panics_total")
	}
}

// TestLatencyTriggerThroughServer: a request slower than the threshold
// produces a bundle without any explicit dump call.
func TestLatencyTriggerThroughServer(t *testing.T) {
	ts, _, rec := newFlightRecServer(t, func(c *flightrec.Config) {
		c.LatencyTrigger = time.Nanosecond // everything is "slow"
	})
	getJSON(t, ts.URL+"/v1/count?source=boxA&q=ERROR", http.StatusOK, nil)
	paths := waitForServerBundles(t, rec.Status().Dir, 1)
	b, err := flightrec.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "latency" {
		t.Fatalf("trigger = %q, want latency", b.Manifest.Trigger)
	}
}

// TestSIGQUITBundleEndToEnd is the acceptance path: a SIGQUIT delivered to
// a loaded process produces exactly one bundle, and the diag renderer
// tells the incident story from it.
func TestSIGQUITBundleEndToEnd(t *testing.T) {
	ts, _, rec := newFlightRecServer(t, nil)
	lt, _ := loggen.ByName("A")
	for i := 0; i < 5; i++ {
		getJSON(t, ts.URL+"/v1/query?source=boxA&q="+escape(lt.Query), http.StatusOK, nil)
	}
	rec.Sample() // at least one metrics sample for the timeline

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	defer signal.Stop(ch)
	done := make(chan struct{})
	go func() { rec.DumpOn(ch, "sigquit"); close(done) }()

	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	paths := waitForServerBundles(t, rec.Status().Dir, 1)
	signal.Stop(ch)
	close(ch)
	<-done

	if len(paths) != 1 {
		t.Fatalf("got %d bundles, want exactly 1: %v", len(paths), paths)
	}
	b, err := flightrec.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	story := b.Story()
	for _, want := range []string{"trigger=sigquit", "worst requests:", "boxA", "stage breakdown", "filter"} {
		if !strings.Contains(story, want) {
			t.Errorf("story missing %q:\n%s", want, story)
		}
	}
}

// TestRuntimeGaugesExported: the Go runtime gauges appear in the Prom
// text, the JSON view, and /healthz.
func TestRuntimeGaugesExported(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE loggrep_goroutines gauge",
		"loggrep_heap_inuse_bytes",
		"loggrep_gc_pause_ns_total",
		"loggrep_process_uptime_seconds",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var js map[string]any
	getJSON(t, ts.URL+"/metrics?format=json", http.StatusOK, &js)
	if g, ok := js["loggrep_goroutines"].(float64); !ok || g <= 0 {
		t.Errorf("JSON loggrep_goroutines = %v", js["loggrep_goroutines"])
	}
	if h, ok := js["loggrep_heap_inuse_bytes"].(float64); !ok || h <= 0 {
		t.Errorf("JSON loggrep_heap_inuse_bytes = %v", js["loggrep_heap_inuse_bytes"])
	}

	var hz map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hz)
	if g, ok := hz["goroutines"].(float64); !ok || g <= 0 {
		t.Errorf("/healthz goroutines = %v", hz["goroutines"])
	}
	if h, ok := hz["heap_inuse_bytes"].(float64); !ok || h <= 0 {
		t.Errorf("/healthz heap_inuse_bytes = %v", hz["heap_inuse_bytes"])
	}
}

// BenchmarkQueryFlightRec pairs with BenchmarkQueryBaseline: the same
// uncached query work with the flight recorder buffering every event (its
// sampler running, no trigger configured) — the "<2% overhead" claim for
// the always-on recorder in EXPERIMENTS.md.
func BenchmarkQueryFlightRec(b *testing.B) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New()
	rec := flightrec.NewRecorder(flightrec.Config{Dir: b.TempDir(), Registry: obsv.NewRegistry()})
	rec.Start()
	defer rec.Stop()
	sv.FlightRec = rec
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		b.Fatal(err)
	}
	h := sv.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("GET", fmt.Sprintf("/v1/query?source=boxA&q=needle%dmissing", i), nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
