package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/faultinject"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

func newTestServer(t *testing.T) (*httptest.Server, []string) {
	t.Helper()
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	lines := logparse.SplitLines(block)
	sv := New()
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	aopts := archive.DefaultOptions()
	aopts.BlockBytes = 80 << 10
	arcData, err := archive.Compress(block, aopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Load("arcA", arcData); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts, lines
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &out)
	if out["status"] != "ok" {
		t.Fatalf("health = %v", out)
	}
	if n, ok := out["sources"].(float64); !ok || n != 2 {
		t.Fatalf("sources = %v, want 2", out["sources"])
	}
}

func TestListSources(t *testing.T) {
	ts, _ := newTestServer(t)
	var out []SourceInfo
	getJSON(t, ts.URL+"/v1/sources", http.StatusOK, &out)
	if len(out) != 2 {
		t.Fatalf("sources = %+v", out)
	}
	if out[0].Name != "arcA" || out[0].Kind != "archive" || out[0].Blocks < 2 {
		t.Fatalf("archive source = %+v", out[0])
	}
	if out[1].Name != "boxA" || out[1].Kind != "box" || out[1].Lines != 3000 {
		t.Fatalf("box source = %+v", out[1])
	}
}

func TestQueryBoxAndArchiveAgree(t *testing.T) {
	ts, lines := newTestServer(t)
	lt, _ := loggen.ByName("A")
	q := "?q=" + escape(lt.Query)
	var boxRes, arcRes queryResponse
	getJSON(t, ts.URL+"/v1/query?source=boxA&"+q[1:], http.StatusOK, &boxRes)
	getJSON(t, ts.URL+"/v1/query?source=arcA&"+q[1:], http.StatusOK, &arcRes)
	if boxRes.Matches == 0 || boxRes.Matches != arcRes.Matches {
		t.Fatalf("box %d vs archive %d matches", boxRes.Matches, arcRes.Matches)
	}
	for i := range boxRes.Lines {
		if boxRes.Lines[i] != arcRes.Lines[i] || boxRes.Entries[i] != arcRes.Entries[i] {
			t.Fatalf("mismatch at %d", i)
		}
		if boxRes.Entries[i] != lines[boxRes.Lines[i]] {
			t.Fatalf("entry %d is not the raw line", i)
		}
	}
}

func TestCountEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var count struct {
		Matches int `json:"matches"`
	}
	getJSON(t, ts.URL+"/v1/count?source=boxA&q=ERROR", http.StatusOK, &count)
	var full queryResponse
	getJSON(t, ts.URL+"/v1/query?source=boxA&q=ERROR", http.StatusOK, &full)
	if count.Matches != full.Matches {
		t.Fatalf("count %d != query %d", count.Matches, full.Matches)
	}
}

// TestCountHonoursBudget: /v1/count runs under the server's work budget on
// every kind of source, exactly like /v1/query — switching endpoint must
// not defeat -max-decompressions. A cut count is flagged partial and never
// exceeds the true count.
func TestCountHonoursBudget(t *testing.T) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	ts, sv := newIngestServer(t)
	sv.Budget = core.Budget{MaxDecompressions: 1}
	if err := sv.Load("box", core.Compress(block, core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	aopts := archive.DefaultOptions()
	aopts.BlockBytes = 80 << 10
	arc, err := archive.Compress(block, aopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Load("arc", arc); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest.Append("t", "s", logparse.SplitLines(block)); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest.TriggerSeal(context.Background(), "t", "s"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"box", "arc", "t/s"} {
		// An exact-bitset count (one wildcard-free keyword) and a
		// verifying one.
		for _, q := range []string{"reqId:5E9D21AD5E473938", lt.Query} {
			truth, _, err := core.RawQuery(block, q)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Matches       int    `json:"matches"`
				Partial       bool   `json:"partial"`
				PartialReason string `json:"partial_reason"`
			}
			getJSON(t, ts.URL+"/v1/count?source="+src+"&q="+escape(q), http.StatusOK, &out)
			if !out.Partial || !strings.Contains(out.PartialReason, "budget") {
				t.Errorf("%s %q: count under a 1-decompression budget not flagged partial: %+v", src, q, out)
			}
			if out.Matches > len(truth) {
				t.Errorf("%s %q: partial count %d exceeds the true count %d", src, q, out.Matches, len(truth))
			}
		}
	}
}

func TestEntryEndpoint(t *testing.T) {
	ts, lines := newTestServer(t)
	for _, src := range []string{"boxA", "arcA"} {
		var out struct {
			Entry string `json:"entry"`
		}
		getJSON(t, fmt.Sprintf("%s/v1/entry?source=%s&line=42", ts.URL, src), http.StatusOK, &out)
		if out.Entry != lines[42] {
			t.Fatalf("%s entry 42 = %q, want %q", src, out.Entry, lines[42])
		}
	}
	getJSON(t, ts.URL+"/v1/entry?source=boxA&line=999999", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/entry?source=boxA&line=abc", http.StatusBadRequest, nil)
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	getJSON(t, ts.URL+"/v1/query?source=nope&q=x", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/query?source=boxA", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/query?source=boxA&q="+escape("AND AND"), http.StatusBadRequest, nil)
}

func TestUploadAndDelete(t *testing.T) {
	ts, _ := newTestServer(t)
	lt, _ := loggen.ByName("S")
	data := core.Compress(lt.Block(1, 500), core.DefaultOptions())

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/sources/sudo", bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var qres queryResponse
	getJSON(t, ts.URL+"/v1/query?source=sudo&q="+escape(lt.Query), http.StatusOK, &qres)
	if qres.Matches == 0 {
		t.Fatal("uploaded source does not answer")
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sources/sudo", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/query?source=sudo&q=x", http.StatusNotFound, nil)

	// Garbage uploads are rejected.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/sources/bad", bytes.NewReader([]byte("junk")))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status %d", resp.StatusCode)
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts, _ := newTestServer(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			src := []string{"boxA", "arcA"}[i%2]
			resp, err := http.Get(ts.URL + "/v1/query?source=" + src + "&q=ERROR")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func escape(q string) string {
	// crude query escaping for tests
	out := ""
	for _, c := range q {
		switch c {
		case ' ':
			out += "%20"
		case '#':
			out += "%23"
		case '+':
			out += "%2B"
		case '&':
			out += "%26"
		default:
			out += string(c)
		}
	}
	return out
}

// TestEntryHearsCancellation: a /v1/entry wedged on a stalled block read
// returns when its client goes away, and on HardStop — and the interrupted
// open leaves the block healthy, not latched as damaged.
func TestEntryHearsCancellation(t *testing.T) {
	for _, how := range []string{"client gone", "hard stop"} {
		t.Run(how, func(t *testing.T) {
			sv := New()
			if err := sv.Load("arc", lifecycleArchive()); err != nil {
				t.Fatal(err)
			}
			arch := sv.sources["arc"].arch
			arch.SetReadHook(faultinject.SlowRead(30 * time.Second))
			h := sv.Handler()
			entered, returned := make(chan struct{}), make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				close(entered)
				h.ServeHTTP(w, r)
				close(returned)
			}))
			defer ts.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/entry?source=arc&line=3", nil)
			go func() {
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			<-entered
			if how == "client gone" {
				cancel()
			} else {
				sv.HardStop()
			}
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				t.Fatal("handler still wedged on the stalled read 5s after the cancellation")
			}
			arch.SetReadHook(nil)
			if d := arch.Verify(false); d != nil {
				t.Fatalf("interrupted entry read latched damage: %v", d)
			}
			if got, err := arch.Entry(context.Background(), 3); err != nil || got == "" {
				t.Fatalf("entry after the interruption = %q, %v", got, err)
			}
		})
	}
}
