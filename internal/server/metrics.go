package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"loggrep/internal/obsv"
	"loggrep/internal/otlp"
)

// Admission-control and lifecycle metrics, registered in obsv.Default.
// Every name here is documented in OPERATIONS.md; keep the two in sync.
var (
	mQueriesShed = obsv.Default.Counter("loggrep_http_queries_shed_total",
		"Query requests refused with 429 because the wait queue was full")
	mQueriesQueued = obsv.Default.Counter("loggrep_http_queries_queued_total",
		"Query requests that waited in the admission queue")
	mQueriesTimedOut = obsv.Default.Counter("loggrep_http_queries_timed_out_total",
		"Query requests answered 504 after their deadline expired")
	mQueriesHTTPCancelled = obsv.Default.Counter("loggrep_http_queries_cancelled_total",
		"Query requests abandoned by the client or cut off by shutdown")
	mQueriesRejectedDraining = obsv.Default.Counter("loggrep_http_rejected_draining_total",
		"Requests refused with 503 while the server was draining")
	mShutdowns = obsv.Default.Counter("loggrep_shutdowns_total",
		"Graceful shutdowns initiated by signal")
	mPanics = obsv.Default.Counter("loggrep_http_panics_total",
		"Handler panics recovered by instrument (each also triggers a flight-recorder dump)")
)

// processStart anchors the uptime gauge. Package-level rather than
// per-Server because obsv.Default is process-global and gauges register
// first-wins.
var processStart = time.Now()

var runtimeGaugesOnce sync.Once

// registerRuntimeGauges installs the Go runtime gauges in obsv.Default so
// they show up in both the Prometheus text and JSON views of /metrics.
// They read live values at scrape time via callbacks; ReadMemStats on a
// scrape path is cheap enough at /metrics cadence. Every name here is
// documented in OPERATIONS.md; keep the two in sync.
func registerRuntimeGauges() {
	runtimeGaugesOnce.Do(func() {
		obsv.Default.Gauge("loggrep_goroutines",
			"Live goroutine count", func() int64 {
				return int64(runtime.NumGoroutine())
			})
		obsv.Default.Gauge("loggrep_heap_inuse_bytes",
			"Bytes in in-use heap spans", func() int64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapInuse)
			})
		obsv.Default.Gauge("loggrep_gc_pause_ns_total",
			"Cumulative GC stop-the-world pause time", func() int64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return int64(ms.PauseTotalNs)
			})
		obsv.Default.Gauge("loggrep_process_uptime_seconds",
			"Seconds since process start", func() int64 {
				return int64(time.Since(processStart).Seconds())
			})
	})
}

// requestIDs resolves a request's W3C trace identity: a valid inbound
// traceparent header joins the caller's trace (the caller's span becomes
// our parent and its tracestate is carried through); anything else roots
// a fresh 128-bit trace here. Either way this process opens its own span.
func requestIDs(r *http.Request) obsv.ReqIDs {
	ids := obsv.ReqIDs{SpanID: obsv.NewSpanID()}
	if tc, ok := otlp.ParseTraceparent(r.Header.Get("traceparent")); ok {
		ids.TraceID = tc.TraceID
		ids.ParentSpanID = tc.SpanID
		if ts := r.Header.Get("tracestate"); otlp.ValidTracestate(ts) {
			ids.TraceState = ts
		}
	} else {
		ids.TraceID = obsv.NewTraceID128()
	}
	return ids
}

// instrument wraps a handler with a per-endpoint request counter and latency
// histogram, registered in obsv.Default as
// loggrep_http_requests_total{endpoint="..."} and
// loggrep_http_request_ns{endpoint="..."}. Every endpoint label is
// documented in OPERATIONS.md; keep the two in sync.
//
// It is also the W3C trace-context boundary: an inbound traceparent
// header is parsed and joined (the caller's 128-bit trace id becomes this
// request's; the caller's span id its parent), a request without one
// roots a fresh trace, and the response echoes `traceparent` with the
// span this process opened plus the compatible X-Trace-Id header. The
// identity rides the request context for wide events and ingest/blob
// exemplars, and the trace id is attached to the latency observation as
// the histogram bucket's exemplar — so a slow observation on /metrics can
// be joined back to its wide event and its exported OTLP span.
//
// Finally it is the server's panic boundary: a panicking handler is
// recovered, counted, handed (with its stack) to the flight recorder —
// which triggers a diagnostic bundle — and answered with a 500 instead of
// tearing down the connection. On the evented endpoints the panic passes
// through lifecycle's deferred finish first, so the request's wide event
// (status 500) is already in the recorder's ring when the bundle is cut.
func (sv *Server) instrument(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	reqs := obsv.Default.Counter(
		fmt.Sprintf(`loggrep_http_requests_total{endpoint=%q}`, endpoint),
		"HTTP requests served, by endpoint")
	lat := obsv.Default.Histogram(
		fmt.Sprintf(`loggrep_http_request_ns{endpoint=%q}`, endpoint), "ns",
		"HTTP request latency, by endpoint")
	return func(w http.ResponseWriter, r *http.Request) {
		ids := requestIDs(r)
		w.Header().Set("X-Trace-Id", ids.TraceID)
		w.Header().Set("traceparent", otlp.FormatTraceparent(ids.TraceID, ids.SpanID, true))
		r = r.WithContext(obsv.ContextWithIDs(r.Context(), ids))
		t0 := time.Now()
		defer func() {
			if v := recover(); v != nil {
				mPanics.Inc()
				sv.FlightRec.RecordPanic(endpoint, v, debug.Stack())
				httpError(w, http.StatusInternalServerError, "internal error")
			}
			reqs.Inc()
			lat.ObserveExemplar(time.Since(t0).Nanoseconds(), ids.TraceID)
		}()
		fn(w, r)
	}
}

// handleMetrics serves obsv.Default: Prometheus text exposition by default,
// one JSON object with ?format=json.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		obsv.Default.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obsv.Default.WriteProm(w)
}
