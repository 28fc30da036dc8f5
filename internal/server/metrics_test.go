package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"loggrep/internal/obsv"
)

// TestMetricsEndpoint loads data, runs a query, then checks /metrics in
// both formats reports non-zero compression-stage and query metrics.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t) // compresses two sources -> compression metrics
	var q queryResponse
	getJSON(t, ts.URL+"/v1/query?source=boxA&q="+url.QueryEscape("ERROR"), http.StatusOK, &q)
	if q.Matches == 0 {
		t.Fatal("query returned no matches; metrics check would be vacuous")
	}

	// Prometheus text format (the default).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	prom := string(body)
	for _, want := range []string{
		"# TYPE loggrep_queries_total counter",
		"# TYPE loggrep_compress_parse_ns summary",
		"loggrep_compress_parse_ns{quantile=\"0.5\"}",
		"loggrep_query_ns_count",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// The query endpoint's request counter must exist and be non-zero
	// (exact value depends on how many tests ran before this one).
	reqLine := ""
	for _, line := range strings.Split(prom, "\n") {
		if strings.HasPrefix(line, `loggrep_http_requests_total{endpoint="query"}`) {
			reqLine = line
		}
	}
	if reqLine == "" || strings.HasSuffix(reqLine, " 0") {
		t.Errorf("per-endpoint request counter missing or zero: %q", reqLine)
	}

	// JSON format.
	resp2, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&m); err != nil {
		t.Fatalf("decode json metrics: %v", err)
	}
	var queries int64
	if err := json.Unmarshal(m["loggrep_queries_total"], &queries); err != nil || queries == 0 {
		t.Errorf("loggrep_queries_total = %s, err %v; want > 0", m["loggrep_queries_total"], err)
	}
	var parse obsv.HistogramSnapshot
	if err := json.Unmarshal(m["loggrep_compress_parse_ns"], &parse); err != nil || parse.Count == 0 || parse.Sum == 0 {
		t.Errorf("loggrep_compress_parse_ns = %+v, err %v; want non-zero count and sum", parse, err)
	}
}

// TestQueryTraceParam checks &trace=1 returns a span breakdown and that
// responses without it omit it.
func TestQueryTraceParam(t *testing.T) {
	ts, _ := newTestServer(t)
	var plain queryResponse
	getJSON(t, ts.URL+"/v1/query?source=boxA&q=ERROR", http.StatusOK, &plain)
	if plain.Trace != nil {
		t.Errorf("response without trace=1 has trace: %+v", plain.Trace)
	}
	// Query a keyword the cache has not seen so the trace carries spans
	// (a Query Cache hit legitimately produces a span-free trace).
	for _, src := range []string{"boxA", "arcA"} {
		var traced queryResponse
		getJSON(t, ts.URL+"/v1/query?source="+src+"&q=INFO&trace=1", http.StatusOK, &traced)
		if traced.Trace == nil {
			t.Fatalf("%s: trace=1 response lacks trace", src)
		}
		if traced.Trace.DurNS <= 0 || len(traced.Trace.Spans) == 0 {
			t.Errorf("%s: trace = %+v, want spans and a duration", src, traced.Trace)
		}
		if traced.Matches == 0 {
			t.Errorf("%s: traced query returned no matches", src)
		}
	}
}

// TestPprofOptIn checks pprof endpoints are absent by default and mounted
// with Server.Pprof set.
func TestPprofOptIn(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}
}
