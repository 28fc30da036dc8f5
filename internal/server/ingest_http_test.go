package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loggrep/internal/ingest"
)

func newIngestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	m, _, err := ingest.Open(ingest.Config{
		Dir:            t.TempDir(),
		SealBytes:      1 << 30,
		SealAge:        time.Hour,
		MaxTenantBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	sv := newServer()
	sv.Ingest = m
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts, sv
}

func postIngest(t *testing.T, url, contentType, body string, wantCode int) ingestResponse {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out ingestResponse
	decodeBody(t, resp, &out)
	return out
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestIngestPlainThenQuery(t *testing.T) {
	ts, _ := newIngestServer(t)
	out := postIngest(t, ts.URL+"/ingest?tenant=acme&stream=app", "text/plain",
		"first ERROR line\nsecond ok line\nthird ERROR line\n", http.StatusOK)
	if out.Accepted != 3 || out.Streams["acme/app"] != 3 {
		t.Fatalf("ingest response = %+v", out)
	}
	var q queryResponse
	getJSON(t, ts.URL+"/v1/query?source=acme/app&q=ERROR", http.StatusOK, &q)
	if q.Matches != 2 || q.Lines[0] != 0 || q.Lines[1] != 2 {
		t.Fatalf("query over ingest stream = %+v", q)
	}
	if q.Entries[1] != "third ERROR line" {
		t.Fatalf("entry = %q", q.Entries[1])
	}
	var count struct {
		Matches int `json:"matches"`
	}
	getJSON(t, ts.URL+"/v1/count?source=acme/app&q=ERROR", http.StatusOK, &count)
	if count.Matches != 2 {
		t.Fatalf("count = %d", count.Matches)
	}
	var entry struct {
		Entry string `json:"entry"`
	}
	getJSON(t, ts.URL+"/v1/entry?source=acme/app&line=1", http.StatusOK, &entry)
	if entry.Entry != "second ok line" {
		t.Fatalf("entry endpoint = %q", entry.Entry)
	}
}

func TestIngestDefaultTenantStream(t *testing.T) {
	ts, _ := newIngestServer(t)
	postIngest(t, ts.URL+"/ingest", "text/plain", "hello default\n", http.StatusOK)
	var q queryResponse
	// A bare stream name resolves via the "default" tenant.
	getJSON(t, ts.URL+"/v1/query?source=default&q=hello", http.StatusOK, &q)
	if q.Matches != 1 {
		t.Fatalf("query = %+v", q)
	}
}

func TestIngestNDJSONRouting(t *testing.T) {
	ts, _ := newIngestServer(t)
	body := `{"line":"to the default stream"}
{"line":"to another stream","stream":"audit"}
{"line":"default again"}`
	out := postIngest(t, ts.URL+"/ingest?tenant=acme&stream=app", "application/x-ndjson", body, http.StatusOK)
	if out.Accepted != 3 || out.Streams["acme/app"] != 2 || out.Streams["acme/audit"] != 1 {
		t.Fatalf("ndjson response = %+v", out)
	}
	var q queryResponse
	getJSON(t, ts.URL+"/v1/query?source=acme/audit&q=another", http.StatusOK, &q)
	if q.Matches != 1 {
		t.Fatalf("routed stream query = %+v", q)
	}
}

func TestIngestBadRequests(t *testing.T) {
	ts, _ := newIngestServer(t)
	// Malformed NDJSON.
	postIngest(t, ts.URL+"/ingest", "application/x-ndjson", "not json at all", http.StatusBadRequest)
	// NDJSON without the required field.
	postIngest(t, ts.URL+"/ingest", "application/x-ndjson", `{"msg":"x"}`, http.StatusBadRequest)
	// Invalid stream name.
	postIngest(t, ts.URL+"/ingest?stream=../evil", "text/plain", "x\n", http.StatusBadRequest)
	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}
}

func TestIngestDisabled(t *testing.T) {
	sv := newServer()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("x\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest disabled: status %d, want 404", resp.StatusCode)
	}
}

func TestIngestBackpressure429(t *testing.T) {
	ts, _ := newIngestServer(t) // 1 MB tenant budget
	big := strings.Repeat(strings.Repeat("x", 1023)+"\n", 700)
	postIngest(t, ts.URL+"/ingest?tenant=small&stream=app", "text/plain", big, http.StatusOK)
	resp, err := http.Post(ts.URL+"/ingest?tenant=small&stream=app", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget ingest: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var out ingestResponse
	decodeBody(t, resp, &out)
	if out.Accepted != 0 || out.Error == "" {
		t.Fatalf("429 body = %+v", out)
	}
	// Other tenants remain unaffected by the full one.
	postIngest(t, ts.URL+"/ingest?tenant=other&stream=app", "text/plain", "fine\n", http.StatusOK)
}

func TestIngestDraining503(t *testing.T) {
	ts, sv := newIngestServer(t)
	sv.StartDraining()
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("x\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest: status %d, want 503", resp.StatusCode)
	}
}

func TestIngestTooLarge413(t *testing.T) {
	old := MaxIngestBytes
	MaxIngestBytes = 1 << 16
	defer func() { MaxIngestBytes = old }()
	ts, _ := newIngestServer(t)
	// A body one byte over the cap.
	body := strings.NewReader(strings.Repeat("x", MaxIngestBytes) + "\n")
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", resp.StatusCode)
	}
}

func TestIngestSealEndpointAndSources(t *testing.T) {
	ts, sv := newIngestServer(t)
	postIngest(t, ts.URL+"/ingest?tenant=acme&stream=app", "text/plain",
		"sealed one\nsealed two\n", http.StatusOK)
	resp, err := http.Post(ts.URL+"/ingest/seal?tenant=acme&stream=app", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal: status %d", resp.StatusCode)
	}
	// Sealing an unknown stream 404s.
	resp, err = http.Post(ts.URL+"/ingest/seal?tenant=acme&stream=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("seal unknown: status %d", resp.StatusCode)
	}
	// The sealed stream still answers, and /v1/sources reports it as an
	// ingest source with a sealed segment.
	var q queryResponse
	getJSON(t, ts.URL+"/v1/query?source=acme/app&q=sealed", http.StatusOK, &q)
	if q.Matches != 2 {
		t.Fatalf("query after seal = %+v", q)
	}
	var srcs []SourceInfo
	getJSON(t, ts.URL+"/v1/sources", http.StatusOK, &srcs)
	if len(srcs) != 1 || srcs[0].Name != "acme/app" || srcs[0].Kind != "ingest" ||
		srcs[0].Lines != 2 || srcs[0].Blocks != 1 {
		t.Fatalf("sources = %+v", srcs)
	}
	if got := sv.Ingest.Snapshot()[0]; got.SealedSegs != 1 || got.RawSegs != 0 {
		t.Fatalf("snapshot = %+v", got)
	}
	// Post-seal appends start a fresh raw tail; queries span both.
	postIngest(t, ts.URL+"/ingest?tenant=acme&stream=app", "text/plain", "sealed three\n", http.StatusOK)
	getJSON(t, ts.URL+"/v1/query?source=acme/app&q=sealed", http.StatusOK, &q)
	if q.Matches != 3 || q.Lines[2] != 2 {
		t.Fatalf("query post-seal append = %+v", q)
	}
}

func TestIngestHealthz(t *testing.T) {
	ts, _ := newIngestServer(t)
	postIngest(t, ts.URL+"/ingest", "text/plain", "x\n", http.StatusOK)
	var out map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &out)
	if n, ok := out["ingest_streams"].(float64); !ok || n != 1 {
		t.Fatalf("healthz ingest_streams = %v", out["ingest_streams"])
	}
}
