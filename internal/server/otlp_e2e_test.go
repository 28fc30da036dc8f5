package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
	"loggrep/internal/otlp"
)

// otlpSink is a minimal OTLP/HTTP collector for e2e tests: it decodes
// trace payloads just far enough to extract span identities.
type otlpSink struct {
	srv *httptest.Server

	mu    sync.Mutex
	spans []sinkSpan
}

type sinkSpan struct {
	TraceID      string `json:"traceId"`
	SpanID       string `json:"spanId"`
	ParentSpanID string `json:"parentSpanId"`
	Name         string `json:"name"`
	Kind         int    `json:"kind"`
}

func newOTLPSink(t *testing.T) *otlpSink {
	t.Helper()
	s := &otlpSink{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/v1/traces" {
			var payload struct {
				ResourceSpans []struct {
					ScopeSpans []struct {
						Spans []sinkSpan `json:"spans"`
					} `json:"scopeSpans"`
				} `json:"resourceSpans"`
			}
			if err := json.Unmarshal(body, &payload); err != nil {
				t.Errorf("collector got bad traces JSON: %v\n%s", err, body)
			}
			s.mu.Lock()
			for _, rs := range payload.ResourceSpans {
				for _, ss := range rs.ScopeSpans {
					s.spans = append(s.spans, ss.Spans...)
				}
			}
			s.mu.Unlock()
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *otlpSink) snapshot() []sinkSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sinkSpan(nil), s.spans...)
}

// TestTraceJoinAcrossAllLayers is the cross-layer identity proof: one
// request carrying an external W3C traceparent must surface the SAME
// trace id in (1) the X-Trace-Id response header, (2) the echoed
// traceparent, (3) the wide event, (4) the /metrics latency exemplar,
// and (5) the exported OTLP span — whose parent must be the caller's
// span.
func TestTraceJoinAcrossAllLayers(t *testing.T) {
	sink := newOTLPSink(t)
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 500)
	sv := newServer()
	buf := &syncBuffer{}
	sv.Events = obsv.NewEventLog(buf, 0, 0)
	exp := otlp.New(otlp.Config{
		Endpoint: sink.srv.URL,
		Interval: 10 * time.Millisecond,
	})
	exp.Start()
	sv.OTLP = exp
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)

	const (
		callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
		callerSpan  = "00f067aa0ba902b7"
	)
	req, err := http.NewRequest(http.MethodGet,
		ts.URL+"/v1/query?source=boxA&q="+escape(lt.Query), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	req.Header.Set("tracestate", "congo=t61rcWkgMzE")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// (1) X-Trace-Id joined the caller's trace.
	if got := resp.Header.Get("X-Trace-Id"); got != callerTrace {
		t.Errorf("X-Trace-Id = %q, want caller's %q", got, callerTrace)
	}
	// (2) The echoed traceparent carries the same trace with our own span.
	tp := resp.Header.Get("traceparent")
	tc, ok := otlp.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if tc.TraceID != callerTrace {
		t.Errorf("response traceparent trace = %q, want %q", tc.TraceID, callerTrace)
	}
	if tc.SpanID == callerSpan {
		t.Error("response traceparent span id is the caller's; this process must open its own span")
	}

	// (3) The wide event carries the full joined identity.
	evs := parseEvents(t, buf.String())
	if len(evs) != 1 {
		t.Fatalf("got %d wide events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.TraceID != callerTrace || ev.SpanID != tc.SpanID || ev.ParentSpanID != callerSpan {
		t.Errorf("wide event identity = %s/%s/%s, want %s/%s/%s",
			ev.TraceID, ev.SpanID, ev.ParentSpanID, callerTrace, tc.SpanID, callerSpan)
	}
	if ev.TraceState != "congo=t61rcWkgMzE" {
		t.Errorf("tracestate = %q, not carried through", ev.TraceState)
	}

	// (4) The /metrics latency exemplar records the same trace id.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	// The histogram keeps one exemplar per latency bucket, process-wide;
	// other tests' queries populate other buckets, so the join holds when
	// ANY bucket's exemplar carries this request's trace id.
	exRE := regexp.MustCompile(`# EXEMPLAR loggrep_http_request_ns\{endpoint="query"\}.*trace_id="([0-9a-f]{32})"`)
	ms := exRE.FindAllStringSubmatch(string(mbody), -1)
	if len(ms) == 0 {
		t.Fatal("/metrics has no query-endpoint exemplar")
	}
	var exemplarJoined bool
	for _, m := range ms {
		if m[1] == callerTrace {
			exemplarJoined = true
		}
	}
	if !exemplarJoined {
		t.Errorf("no exemplar carries trace id %q: %v", callerTrace, ms)
	}

	// (5) The exported OTLP root span joins the caller's trace as a child
	// of the caller's span; stage children hang off the root.
	deadline := time.Now().Add(5 * time.Second)
	var root *sinkSpan
	for time.Now().Before(deadline) && root == nil {
		for _, sp := range sink.snapshot() {
			if sp.Kind == 2 && sp.Name == "query" {
				root = &sp
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if root == nil {
		t.Fatal("no exported OTLP root span arrived at the collector")
	}
	if root.TraceID != callerTrace {
		t.Errorf("OTLP span trace = %q, want caller's %q", root.TraceID, callerTrace)
	}
	if root.SpanID != tc.SpanID {
		t.Errorf("OTLP span id = %q, want the traceparent's %q", root.SpanID, tc.SpanID)
	}
	if root.ParentSpanID != callerSpan {
		t.Errorf("OTLP span parent = %q, want the caller's span %q", root.ParentSpanID, callerSpan)
	}
	var children int
	for _, sp := range sink.snapshot() {
		if sp.ParentSpanID == root.SpanID {
			children++
		}
	}
	if children == 0 {
		t.Error("no stage child spans exported under the root")
	}

	if err := exp.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestOTLPForcesEventWithoutLog: OTLP alone (no event log, no flight
// recorder) is enough to produce wide events and exported spans — the
// startEvent guard includes the exporter.
func TestOTLPForcesEventWithoutLog(t *testing.T) {
	sink := newOTLPSink(t)
	lt, _ := loggen.ByName("A")
	sv := newServer()
	exp := otlp.New(otlp.Config{Endpoint: sink.srv.URL, Interval: 10 * time.Millisecond})
	exp.Start()
	sv.OTLP = exp
	if err := sv.Load("boxA", core.Compress(lt.Block(3, 300), core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	getJSON(t, ts.URL+"/v1/query?source=boxA&q="+escape(lt.Query), http.StatusOK, nil)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(sink.snapshot()) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(sink.snapshot()) == 0 {
		t.Fatal("no spans exported with OTLP as the only event consumer")
	}
	if err := exp.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
