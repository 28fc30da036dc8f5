package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/faultinject"
	"loggrep/internal/ingest"
	"loggrep/internal/liveops"
	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
	"loggrep/internal/otlp"
)

// syncBuffer lets the event log write from handler goroutines while the
// test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newWideEventServer is newTestServer plus an always-on wide-event log.
func newWideEventServer(t *testing.T) (*httptest.Server, *syncBuffer) {
	t.Helper()
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New()
	buf := &syncBuffer{}
	sv.Events = obsv.NewEventLog(buf, 0, 0)
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
	return ts, buf
}

func parseEvents(t *testing.T, raw string) []obsv.WideEvent {
	t.Helper()
	var out []obsv.WideEvent
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obsv.WideEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("wide event is not valid JSON: %v\n%s", err, sc.Text())
		}
		out = append(out, ev)
	}
	return out
}

// TestWideEventPerRequest: with -slowlog 0 semantics (threshold 0), every
// query and count request emits exactly one wide event whose trace id
// matches the X-Trace-Id response header and whose fields describe the
// query's real work.
func TestWideEventPerRequest(t *testing.T) {
	ts, buf := newWideEventServer(t)
	lt, _ := loggen.ByName("A")

	resp, err := http.Get(ts.URL + "/v1/query?source=boxA&q=" + escape(lt.Query))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	headerID := resp.Header.Get("X-Trace-Id")
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(headerID) {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", headerID)
	}
	var boxRes queryResponse
	getJSON(t, ts.URL+"/v1/query?source=arcA&q="+escape(lt.Query), http.StatusOK, &boxRes)
	getJSON(t, ts.URL+"/v1/count?source=boxA&q=ERROR", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/query?source=none&q=ERROR", http.StatusNotFound, nil)

	evs := parseEvents(t, buf.String())
	if len(evs) != 4 {
		t.Fatalf("got %d wide events, want 4:\n%s", len(evs), buf.String())
	}

	box := evs[0]
	if box.TraceID != headerID {
		t.Errorf("event trace id %q != X-Trace-Id %q", box.TraceID, headerID)
	}
	if box.Endpoint != "query" || box.Source != "boxA" || box.Command != lt.Query {
		t.Errorf("request identity wrong: %+v", box)
	}
	if box.Status != http.StatusOK || box.DurNS <= 0 || box.Time == "" || box.Version == "" {
		t.Errorf("outcome fields wrong: %+v", box)
	}
	if box.Matches == 0 || box.Lines != 3000 {
		t.Errorf("matches/lines wrong: matches=%d lines=%d", box.Matches, box.Lines)
	}
	if box.CapsuleScans == 0 || box.BytesScanned == 0 || box.Decompressions == 0 {
		t.Errorf("work counters empty: %+v", box)
	}
	if len(box.Spans) == 0 {
		t.Error("no span timings on box query event")
	}
	names := map[string]bool{}
	for _, sp := range box.Spans {
		names[sp.Name] = true
	}
	if !names["filter"] || !names["verify"] {
		t.Errorf("expected filter+verify spans, got %v", names)
	}

	arc := evs[1]
	if arc.Blocks == 0 || arc.BlocksSearched == 0 {
		t.Errorf("archive event missing block shape: %+v", arc)
	}
	if arc.CapsuleScans == 0 || arc.BytesScanned == 0 {
		t.Errorf("archive event missing engine work counters: %+v", arc)
	}
	if arc.Matches != box.Matches {
		t.Errorf("archive matches %d != box matches %d", arc.Matches, box.Matches)
	}

	count := evs[2]
	if count.Endpoint != "count" || count.Status != http.StatusOK || count.Matches == 0 {
		t.Errorf("count event wrong: %+v", count)
	}
	if count.CapsuleScans == 0 || count.BytesScanned == 0 || count.Decompressions == 0 {
		t.Errorf("count event carries no engine work: %+v", count)
	}

	miss := evs[3]
	if miss.Status != http.StatusNotFound || miss.Error == "" {
		t.Errorf("error event wrong: %+v", miss)
	}
}

// TestWideEventBudgetAndCache: budget caps land in the event, and a
// repeated query is visibly a cache hit.
func TestWideEventBudgetAndCache(t *testing.T) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New()
	buf := &syncBuffer{}
	sv.Events = obsv.NewEventLog(buf, 0, 0)
	sv.Budget = core.Budget{MaxScannedBytes: 1 << 30, MaxDecompressions: 1 << 20}
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)

	url := ts.URL + "/v1/query?source=boxA&q=" + escape(lt.Query)
	getJSON(t, url, http.StatusOK, nil)
	getJSON(t, url, http.StatusOK, nil)

	evs := parseEvents(t, buf.String())
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].BudgetScanBytes != 1<<30 || evs[0].BudgetDecompressions != 1<<20 {
		t.Errorf("budget caps missing: %+v", evs[0])
	}
	if evs[0].CacheHit {
		t.Errorf("first query reported as cache hit: %+v", evs[0])
	}
	if !evs[1].CacheHit {
		t.Errorf("repeat query not reported as cache hit: %+v", evs[1])
	}
}

// TestWideEventSlowlogThreshold: a high threshold suppresses fast requests
// entirely.
func TestWideEventSlowlogThreshold(t *testing.T) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 1000)
	sv := New()
	buf := &syncBuffer{}
	sv.Events = obsv.NewEventLog(buf, 1<<62, 0)
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	getJSON(t, ts.URL+"/v1/query?source=boxA&q=ERROR", http.StatusOK, nil)
	if got := buf.String(); got != "" {
		t.Errorf("fast request emitted despite huge threshold:\n%s", got)
	}
	if sv.Events.Emitted() != 0 {
		t.Errorf("Emitted = %d, want 0", sv.Events.Emitted())
	}
}

// TestMetricsExemplarJoinsWideEvent: the /metrics latency histogram for the
// query endpoint carries an exemplar whose trace id matches one of the
// emitted wide events — the join the forensics runbook relies on.
func TestMetricsExemplarJoinsWideEvent(t *testing.T) {
	ts, buf := newWideEventServer(t)
	lt, _ := loggen.ByName("A")
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/v1/query?source=boxA&q="+escape(lt.Query), http.StatusOK, nil)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	re := regexp.MustCompile(`# EXEMPLAR loggrep_http_request_ns\{endpoint="query"\}.*trace_id="([0-9a-f]{32})"`)
	ms := re.FindAllStringSubmatch(string(body), -1)
	if len(ms) == 0 {
		t.Fatalf("/metrics has no exemplar for the query endpoint:\n%s", body)
	}
	evIDs := map[string]bool{}
	for _, ev := range parseEvents(t, buf.String()) {
		evIDs[ev.TraceID] = true
	}
	joined := false
	for _, m := range ms {
		if evIDs[m[1]] {
			joined = true
		}
	}
	if !joined {
		t.Errorf("no exemplar trace id %v found among wide events %v", ms, evIDs)
	}
}

// lifecycleEndpoint is one evented endpoint as the conformance table
// drives it.
type lifecycleEndpoint struct {
	name, method, path, body string
	write                    bool
}

var lifecycleEndpoints = []lifecycleEndpoint{
	{name: "query", method: "GET", path: "/v1/query?source=arc&q=ERROR"},
	{name: "count", method: "GET", path: "/v1/count?source=arc&q=ERROR"},
	{name: "ingest", method: "POST", path: "/ingest?tenant=t&stream=s", body: "one line\n", write: true},
	{name: "ingest_seal", method: "POST", path: "/ingest/seal?tenant=t&stream=s", write: true},
}

// lifecycleEnv is a server with every lifecycle stage observable: an
// always-on event log, the live-ops plane, one admission slot with a
// one-deep queue, a never-queried archive "arc" whose reads a row can
// stall, and (unless a row asks otherwise) ingest with stream t/s.
type lifecycleEnv struct {
	sv  *Server
	ts  *httptest.Server
	buf *syncBuffer
}

var lifecycleArchive = sync.OnceValue(func() []byte {
	lt, _ := loggen.ByName("A")
	opts := archive.DefaultOptions()
	opts.BlockBytes = 25_000
	data, err := archive.Compress(lt.Block(11, 1000), opts)
	if err != nil {
		panic(err)
	}
	return data
})

func newLifecycleEnv(t *testing.T, withIngest bool) *lifecycleEnv {
	t.Helper()
	sv := New()
	sv.MaxConcurrent, sv.QueueDepth = 1, 1
	sv.Liveops = liveops.New(liveops.Config{Registry: obsv.NewRegistry()})
	if err := sv.Load("arc", lifecycleArchive()); err != nil {
		t.Fatal(err)
	}
	if withIngest {
		m, _, err := ingest.Open(ingest.Config{Dir: t.TempDir(), SealBytes: 1 << 30, SealAge: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if err := m.Append("t", "s", []string{"seed line"}); err != nil {
			t.Fatal(err)
		}
		sv.Ingest = m
	}
	e := &lifecycleEnv{sv: sv, buf: &syncBuffer{}}
	sv.Events = obsv.NewEventLog(e.buf, 0, 0)
	e.ts = httptest.NewServer(sv.Handler())
	t.Cleanup(e.ts.Close)
	return e
}

// do issues ep's request (extra is appended to its query string) and
// returns the response status, 0 on a transport error.
func (e *lifecycleEnv) do(ep lifecycleEndpoint, method, extra string, body io.Reader) int {
	req, err := http.NewRequest(method, e.ts.URL+ep.path+extra, body)
	if err != nil {
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// stall wedges every read of "arc" until the request's context ends.
func (e *lifecycleEnv) stall() {
	e.sv.sources["arc"].arch.SetReadHook(faultinject.SlowRead(30 * time.Second))
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// cancelInflight waits for the row's request to register in the
// in-flight view, then cancels it the way DELETE /v1/inflight/{id} does.
func (e *lifecycleEnv) cancelInflight(t *testing.T) {
	t.Helper()
	var id string
	waitFor(t, "request in /v1/inflight", func() bool {
		for _, v := range e.sv.Liveops.Inflight.Snapshot() {
			id = v.ID
		}
		return id != ""
	})
	if !e.sv.Liveops.Inflight.Cancel(id) {
		t.Fatalf("in-flight request %s not cancellable", id)
	}
}

// TestLifecycleConformance is the contract of the one request lifecycle:
// for every evented endpoint and every way a request can end, exactly one
// wide event is finished, its status/queued/shed say what the client
// saw, the in-flight registry is empty afterwards, and the admission slot
// is free again (a follow-up request at MaxConcurrent=1 is admitted).
func TestLifecycleConformance(t *testing.T) {
	type want struct {
		status       int
		queued, shed bool
	}
	outcomes := []struct {
		name string
		// reads restricts the row to the deadline-carrying GET endpoints;
		// noSeal skips /ingest/seal (nothing in this package can stall a
		// seal mid-flight).
		reads, noSeal bool
		run           func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want)
	}{
		{name: "200", run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			return e, want{status: e.do(ep, ep.method, "", strings.NewReader(ep.body))}
		}},
		{name: "405", run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			if got := e.do(ep, http.MethodPut, "", nil); got != http.StatusMethodNotAllowed {
				t.Fatalf("PUT answered %d, want 405", got)
			}
			return e, want{status: http.StatusMethodNotAllowed}
		}},
		{name: "404", run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			// Unknown source on the read side, ingest disabled on the
			// write side.
			e := newLifecycleEnv(t, false)
			ep.path = strings.Replace(ep.path, "source=arc", "source=nope", 1)
			if got := e.do(ep, ep.method, "", strings.NewReader(ep.body)); got != http.StatusNotFound {
				t.Fatalf("answered %d, want 404", got)
			}
			return e, want{status: http.StatusNotFound}
		}},
		{name: "429 shed", run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			e.sv.sem <- struct{}{}
			e.sv.queue <- struct{}{}
			got := e.do(ep, ep.method, "", strings.NewReader(ep.body))
			<-e.sv.queue
			<-e.sv.sem
			if got != http.StatusTooManyRequests {
				t.Fatalf("answered %d with slot and queue full, want 429", got)
			}
			return e, want{status: got, shed: true}
		}},
		{name: "queued then 200", run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			e.sv.sem <- struct{}{}
			got := make(chan int, 1)
			go func() { got <- e.do(ep, ep.method, "", strings.NewReader(ep.body)) }()
			waitFor(t, "request in the admission queue", func() bool { return len(e.sv.queue) == 1 })
			<-e.sv.sem
			return e, want{status: <-got, queued: true}
		}},
		{name: "503 draining", run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			e.sv.StartDraining()
			if got := e.do(ep, ep.method, "", strings.NewReader(ep.body)); got != http.StatusServiceUnavailable {
				t.Fatalf("answered %d while draining, want 503", got)
			}
			return e, want{status: http.StatusServiceUnavailable}
		}},
		{name: "400 bad timeout_ms", reads: true, run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			if got := e.do(ep, ep.method, "&timeout_ms=banana", nil); got != http.StatusBadRequest {
				t.Fatalf("answered %d, want 400", got)
			}
			return e, want{status: http.StatusBadRequest}
		}},
		{name: "400 zero timeout_ms", reads: true, run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			if got := e.do(ep, ep.method, "&timeout_ms=0", nil); got != http.StatusBadRequest {
				t.Fatalf("answered %d, want 400", got)
			}
			return e, want{status: http.StatusBadRequest}
		}},
		{name: "timeout_ms clamped", reads: true, run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			// An hour-long ?timeout_ms= is cut to maxTimeout: the stalled
			// request's deadline, read off the in-flight view, is at most
			// the ceiling away, and the connection's write timeout is
			// derived from the same constant.
			e := newLifecycleEnv(t, true)
			e.stall()
			got := make(chan int, 1)
			go func() { got <- e.do(ep, ep.method, "&timeout_ms=3600000", nil) }()
			var deadlineMS *float64
			waitFor(t, "request in /v1/inflight", func() bool {
				for _, v := range e.sv.Liveops.Inflight.Snapshot() {
					deadlineMS = v.DeadlineMS
					return true
				}
				return false
			})
			if deadlineMS == nil {
				t.Errorf("request has no deadline, want one clamped to %v", maxTimeout)
			} else if *deadlineMS > float64(maxTimeout.Milliseconds()) {
				t.Errorf("request deadline %.0f ms away, want clamped to %v", *deadlineMS, maxTimeout)
			}
			if wt := e.sv.httpServer().WriteTimeout; wt != maxTimeout+30*time.Second {
				t.Errorf("WriteTimeout = %v, want maxTimeout + 30s", wt)
			}
			e.cancelInflight(t)
			return e, want{status: <-got}
		}},
		{name: "504 deadline", reads: true, run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			e.stall()
			if got := e.do(ep, ep.method, "&timeout_ms=50", nil); got != http.StatusGatewayTimeout {
				t.Fatalf("stalled request answered %d, want 504", got)
			}
			return e, want{status: http.StatusGatewayTimeout}
		}},
		{name: "operator cancel", noSeal: true, run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			e.stall()
			// An ingest request is held in flight by its unfinished body;
			// the cancel lands before the batch's first stream append.
			pr, pw := io.Pipe()
			got := make(chan int, 1)
			go func() { got <- e.do(ep, ep.method, "", pr) }()
			e.cancelInflight(t)
			io.WriteString(pw, ep.body)
			pw.Close()
			status := http.StatusOK // reads answer a marked empty partial
			if ep.write {
				status = http.StatusServiceUnavailable
			}
			if s := <-got; s != status {
				t.Fatalf("cancelled request answered %d, want %d", s, status)
			}
			if ep.write && e.sv.Ingest.Lookup("t/s").NumLines() != 1 {
				t.Fatal("cancelled batch was appended anyway")
			}
			return e, want{status: status}
		}},
		{name: "panic", run: func(t *testing.T, ep lifecycleEndpoint) (*lifecycleEnv, want) {
			e := newLifecycleEnv(t, true)
			h := e.sv.instrument(ep.name, e.sv.lifecycle(ep.name, ep.write,
				func(http.ResponseWriter, *http.Request, *request) (int, string) { panic("boom") }))
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(ep.method, ep.path, strings.NewReader(ep.body)))
			return e, want{status: rec.Code}
		}},
	}
	for _, ep := range lifecycleEndpoints {
		for _, oc := range outcomes {
			if oc.reads && ep.write || oc.noSeal && ep.name == "ingest_seal" {
				continue
			}
			t.Run(ep.name+"/"+oc.name, func(t *testing.T) {
				e, w := oc.run(t, ep)
				waitFor(t, "the request's wide event", func() bool { return e.buf.String() != "" })
				evs := parseEvents(t, e.buf.String())
				if len(evs) != 1 {
					t.Fatalf("got %d wide events, want exactly 1:\n%s", len(evs), e.buf.String())
				}
				if ev := evs[0]; ev.Endpoint != ep.name || ev.Status != w.status || ev.Queued != w.queued || ev.Shed != w.shed {
					t.Errorf("event endpoint=%s status=%d queued=%v shed=%v, want %s %+v",
						ev.Endpoint, ev.Status, ev.Queued, ev.Shed, ep.name, w)
				}
				if oc.name == "200" && evs[0].Status != http.StatusOK {
					t.Errorf("plain request answered %d, want 200", evs[0].Status)
				}
				if ev := evs[0]; oc.name == "200" && !ep.write && (ev.BytesScanned == 0 || ev.Decompressions == 0) {
					t.Errorf("a cold %s read capsules but its event meters bytes_scanned=%d decompressions=%d",
						ep.name, ev.BytesScanned, ev.Decompressions)
				}
				waitFor(t, "the in-flight registry to drain", func() bool { return e.sv.Liveops.Inflight.Len() == 0 })
				if len(e.sv.sem) != 0 || len(e.sv.queue) != 0 {
					t.Errorf("admission not released: %d slot(s), %d queue place(s) held", len(e.sv.sem), len(e.sv.queue))
				}
				if !e.sv.isDraining() {
					e.sv.sources["arc"].arch.SetReadHook(nil)
					getJSON(t, e.ts.URL+"/v1/count?source=arc&q=WARN", http.StatusOK, nil)
				}
			})
		}
	}
}

// benchQueries drives b.N distinct queries (unique needle per iteration,
// defeating the query cache) through the full handler stack.
func benchQueries(b *testing.B, events bool) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New()
	if events {
		sv.Events = obsv.NewEventLog(io.Discard, 0, 0)
	}
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

// The pair behind the "<2% overhead" claim in EXPERIMENTS.md: identical
// uncached query work with the wide-event log (and its forced tracing +
// exemplars) on and off.
func BenchmarkQueryBaseline(b *testing.B)   { benchQueries(b, false) }
func BenchmarkQueryWideEvents(b *testing.B) { benchQueries(b, true) }

// BenchmarkQueryOTLP adds the full export pipeline to the wide-event
// path: every request's event is converted and POSTed (in background
// batches) to a local collector. Paired against BenchmarkQueryWideEvents
// it isolates the exporter's hot-path cost — which must be one
// non-blocking channel send; the conversion and HTTP work ride the
// background goroutine.
func BenchmarkQueryOTLP(b *testing.B) {
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	}))
	defer collector.Close()
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New()
	sv.Events = obsv.NewEventLog(io.Discard, 0, 0)
	exp := otlp.New(otlp.Config{Endpoint: collector.URL})
	exp.Start()
	defer exp.Close(context.Background())
	sv.OTLP = exp
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

// BenchmarkQueryTracedOnly isolates the forced-tracing share of the
// wide-event cost: tracing on, no event log.
func BenchmarkQueryTracedOnly(b *testing.B) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New()
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		b.Fatal(err)
	}
	h := sv.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("GET", fmt.Sprintf("/v1/query?source=boxA&q=needle%dmissing&trace=1", i), nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
