package otlp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loggrep/internal/obsv"
)

// fakeCollector is an httptest OTLP/HTTP collector: it records every
// decoded trace and metrics payload and can be programmed to fail.
type fakeCollector struct {
	srv *httptest.Server

	mu      sync.Mutex
	traces  []tracesPayload
	metrics []metricsPayload
	// failNext returns the HTTP status for the next request, 0 for 200.
	failNext func(path string) int
}

func newFakeCollector(t *testing.T) *fakeCollector {
	t.Helper()
	fc := &fakeCollector{}
	fc.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fc.mu.Lock()
		defer fc.mu.Unlock()
		if fc.failNext != nil {
			if code := fc.failNext(r.URL.Path); code != 0 {
				w.WriteHeader(code)
				return
			}
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q, want application/json", ct)
		}
		switch r.URL.Path {
		case "/v1/traces":
			var p tracesPayload
			if err := json.Unmarshal(body, &p); err != nil {
				t.Errorf("bad traces payload: %v\n%s", err, body)
			}
			fc.traces = append(fc.traces, p)
		case "/v1/metrics":
			var p metricsPayload
			if err := json.Unmarshal(body, &p); err != nil {
				t.Errorf("bad metrics payload: %v\n%s", err, body)
			}
			fc.metrics = append(fc.metrics, p)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(fc.srv.Close)
	return fc
}

// spans flattens every received trace payload into one span list.
func (fc *fakeCollector) spans() []span {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var out []span
	for _, p := range fc.traces {
		for _, rs := range p.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				out = append(out, ss.Spans...)
			}
		}
	}
	return out
}

func (fc *fakeCollector) metricCount() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.metrics)
}

func testConfig(fc *fakeCollector) Config {
	return Config{
		Endpoint:    fc.srv.URL,
		Interval:    20 * time.Millisecond,
		backoffBase: time.Millisecond,
		backoffMax:  2 * time.Millisecond,
		Registry:    obsv.NewRegistry(),
	}
}

func testEvent(traceID string) *obsv.WideEvent {
	return &obsv.WideEvent{
		TraceID:  traceID,
		SpanID:   "00c0ffee00c0ffee",
		Endpoint: "query",
		Time:     "2026-01-02T03:04:05Z",
		DurNS:    1000,
		Status:   200,
		Spans:    []obsv.Span{{Name: "filter", DurNS: 500}},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestExporterEndToEnd: events flow through the queue into trace POSTs
// the fake collector can decode, and metrics snapshots arrive on the
// interval.
func TestExporterEndToEnd(t *testing.T) {
	fc := newFakeCollector(t)
	cfg := testConfig(fc)
	cfg.Registry.Counter("loggrep_e2e_total", "e2e").Inc()
	e := New(cfg)
	e.Start()
	defer e.Close(context.Background())

	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	e.ExportEvent(testEvent(traceID))
	waitFor(t, "spans and metrics", func() bool {
		return len(fc.spans()) >= 2 && fc.metricCount() >= 1
	})
	spans := fc.spans()
	if spans[0].TraceID != traceID || spans[0].Kind != spanKindServer {
		t.Errorf("root span wrong: %+v", spans[0])
	}
	if spans[1].ParentSpanID != spans[0].SpanID {
		t.Errorf("child parent = %q, want root %q", spans[1].ParentSpanID, spans[0].SpanID)
	}
}

// TestExporterBatchSize: batchSize events trigger a send without waiting
// for the interval tick.
func TestExporterBatchSize(t *testing.T) {
	fc := newFakeCollector(t)
	cfg := testConfig(fc)
	cfg.Interval = time.Hour // only the size trigger may fire
	cfg.batchSize = 4
	e := New(cfg)
	e.Start()
	defer e.Close(context.Background())
	for i := 0; i < 4; i++ {
		e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	}
	waitFor(t, "size-triggered batch", func() bool { return len(fc.spans()) >= 8 })
}

// TestExporterQueueFullDrops: with the sender not started, the queue
// fills and further events drop with the counter — never blocking.
func TestExporterQueueFullDrops(t *testing.T) {
	fc := newFakeCollector(t)
	cfg := testConfig(fc)
	cfg.QueueSize = 4
	e := New(cfg) // not started: nothing drains the queue
	before := mDroppedQueueFull.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ExportEvent blocked on a full queue")
	}
	if got := mDroppedQueueFull.Value() - before; got != 6 {
		t.Errorf("dropped %d, want 6 (queue of 4, 10 offered)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// Close without Start must not hang.
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestExporterRetryTransient: 429 then 500 then success — the payload is
// retried and delivered, with retries counted.
func TestExporterRetryTransient(t *testing.T) {
	fc := newFakeCollector(t)
	var n atomic.Int64
	fc.failNext = func(path string) int {
		if path != "/v1/traces" {
			return 0
		}
		switch n.Add(1) {
		case 1:
			return http.StatusTooManyRequests
		case 2:
			return http.StatusInternalServerError
		}
		return 0
	}
	cfg := testConfig(fc)
	retriesBefore := mRetries.Value()
	e := New(cfg)
	e.Start()
	defer e.Close(context.Background())
	e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	waitFor(t, "retried delivery", func() bool { return len(fc.spans()) >= 2 })
	if got := mRetries.Value() - retriesBefore; got < 2 {
		t.Errorf("retries = %d, want >= 2", got)
	}
}

// TestExporterTerminal4xx: a 400 response is terminal — no retry, batch
// dropped with the send-reason counter.
func TestExporterTerminal4xx(t *testing.T) {
	fc := newFakeCollector(t)
	var attempts atomic.Int64
	fc.failNext = func(path string) int {
		if path == "/v1/traces" {
			attempts.Add(1)
			return http.StatusBadRequest
		}
		return 0
	}
	cfg := testConfig(fc)
	cfg.Interval = time.Hour
	cfg.batchSize = 1
	dropBefore := mDroppedSend.Value()
	failBefore := mExportFailTraces.Value()
	e := New(cfg)
	e.Start()
	defer e.Close(context.Background())
	e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	waitFor(t, "terminal drop", func() bool { return mDroppedSend.Value() > dropBefore })
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (4xx must not retry)", got)
	}
	if mExportFailTraces.Value() == failBefore {
		t.Error("export failure not counted")
	}
	if len(fc.spans()) != 0 {
		t.Error("terminal batch still delivered")
	}
}

func TestRetryableTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&httpError{code: 429}, true},
		{&httpError{code: 500}, true},
		{&httpError{code: 503}, true},
		{&httpError{code: 400}, false},
		{&httpError{code: 404}, false},
		{&httpError{code: 413}, false},
		{fmt.Errorf("wrapping: %w", &httpError{code: 401}), false},
		{fmt.Errorf("dial tcp: connection refused"), true},
		{context.DeadlineExceeded, true},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestExporterShutdownFlush: events still queued at Close are drained,
// sent, and followed by a final metrics snapshot — the graceful-shutdown
// guarantee loggrepd relies on.
func TestExporterShutdownFlush(t *testing.T) {
	fc := newFakeCollector(t)
	cfg := testConfig(fc)
	cfg.Interval = time.Hour // nothing flushes until Close
	cfg.Registry.Counter("loggrep_flush_total", "flush").Inc()
	flushesBefore := mFlushes.Value()
	e := New(cfg)
	e.Start()
	for i := 0; i < 5; i++ {
		e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(fc.spans()); got != 10 {
		t.Errorf("flushed %d spans, want 10 (5 events x root+child)", got)
	}
	if fc.metricCount() == 0 {
		t.Error("no final metrics snapshot")
	}
	if mFlushes.Value() == flushesBefore {
		t.Error("shutdown flush not counted")
	}
	// Idempotent.
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestExporterShutdownFlushRetries: a transient failure during the final
// flush is still retried (the stop channel being closed must not abort
// flush retries), bounded by the Close context.
func TestExporterShutdownFlushRetries(t *testing.T) {
	fc := newFakeCollector(t)
	var n atomic.Int64
	fc.failNext = func(path string) int {
		if path == "/v1/traces" && n.Add(1) == 1 {
			return http.StatusServiceUnavailable
		}
		return 0
	}
	cfg := testConfig(fc)
	cfg.Interval = time.Hour
	e := New(cfg)
	e.Start()
	e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(fc.spans()); got != 2 {
		t.Errorf("flush delivered %d spans, want 2 after retry", got)
	}
}

// TestExporterCloseDeadCollector: Close against a dead collector returns
// once the flush context expires instead of wedging shutdown.
func TestExporterCloseDeadCollector(t *testing.T) {
	fc := newFakeCollector(t)
	cfg := testConfig(fc)
	cfg.timeout = 50 * time.Millisecond
	fc.srv.Close() // collector gone
	e := New(cfg)
	e.Start()
	e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	e.Close(ctx)
	if time.Since(start) > 4*time.Second {
		t.Fatal("Close wedged past its context against a dead collector")
	}
}

// TestExporterNilSafety: every method on a nil exporter is a no-op, so
// callers wire it unconditionally.
func TestExporterNilSafety(t *testing.T) {
	var e *Exporter
	e.Start()
	e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	e.ExportEvent(nil)
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestExporterConcurrentSoak hammers ExportEvent from many goroutines
// while the sender drains and Close races a final flush — run under
// -race in CI. Afterwards the exporter's goroutine must be gone.
func TestExporterConcurrentSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	fc := newFakeCollector(t)
	cfg := testConfig(fc)
	cfg.Interval = 5 * time.Millisecond
	cfg.QueueSize = 64
	// A dedicated transport so the settle check below can distinguish the
	// exporter's goroutine from idle keep-alive connection goroutines.
	tr := &http.Transport{}
	cfg.client = &http.Client{Transport: tr}
	e := New(cfg)
	e.Start()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Goroutine-leak settle: with the exporter closed and its connections
	// torn down, the goroutine count must return to the pre-test baseline.
	fc.srv.Close()
	waitFor(t, "goroutines to settle", func() bool {
		tr.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestExporterResourceAttrs: configured resource attributes arrive
// key-sorted on every export.
func TestExporterResourceAttrs(t *testing.T) {
	fc := newFakeCollector(t)
	cfg := testConfig(fc)
	cfg.Resource = map[string]string{"loggrep.flag.b": "2", "loggrep.flag.a": "1"}
	e := New(cfg)
	e.Start()
	defer e.Close(context.Background())
	e.ExportEvent(testEvent("4bf92f3577b34da6a3ce929d0e0e4736"))
	waitFor(t, "trace export", func() bool {
		fc.mu.Lock()
		defer fc.mu.Unlock()
		return len(fc.traces) > 0
	})
	fc.mu.Lock()
	attrs := fc.traces[0].ResourceSpans[0].Resource.Attributes
	fc.mu.Unlock()
	var keys []string
	for _, a := range attrs {
		keys = append(keys, a.Key)
	}
	want := []string{"service.name", "service.version", "loggrep.flag.a", "loggrep.flag.b"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("resource attr keys = %v, want %v", keys, want)
	}
}
