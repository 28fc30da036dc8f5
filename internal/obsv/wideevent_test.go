package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestTraceIDShape(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{32}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID128()
		if !re.MatchString(id) {
			t.Fatalf("trace id %q is not 32 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("trace id %q repeated within 100 draws", id)
		}
		seen[id] = true
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(100, "aaaa")
	h.ObserveExemplar(120, "bbbb") // same bucket: latest wins
	h.ObserveExemplar(1<<20, "cccc")
	h.Observe(1 << 30) // no exemplar attached
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2", ex)
	}
	if ex[0].TraceID != "bbbb" || ex[0].Value != 120 {
		t.Errorf("bucket exemplar not replaced by latest: %+v", ex[0])
	}
	if ex[1].TraceID != "cccc" || ex[1].Value != 1<<20 {
		t.Errorf("second bucket exemplar wrong: %+v", ex[1])
	}
	// Empty trace ids never record an exemplar.
	h2 := NewHistogram()
	h2.ObserveExemplar(5, "")
	if got := h2.Exemplars(); len(got) != 0 {
		t.Errorf("empty trace id stored an exemplar: %+v", got)
	}
}

func TestExemplarsInOutputs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "ns", "test latency")
	h.ObserveExemplar(1234, "deadbeefdeadbeef")

	var prom bytes.Buffer
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `# EXEMPLAR lat_ns`) ||
		!strings.Contains(prom.String(), `trace_id="deadbeefdeadbeef"`) {
		t.Errorf("Prom output missing exemplar line:\n%s", prom.String())
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"trace_id": "deadbeefdeadbeef"`) {
		t.Errorf("JSON output missing exemplar:\n%s", js.String())
	}

	r.Reset()
	if got := h.Exemplars(); len(got) != 0 {
		t.Errorf("Reset left exemplars behind: %+v", got)
	}
}

// TestWideEventGolden pins the wire shape of a fully populated wide event —
// the stable field names consumers grep and jq for. Regenerate with
// `go test ./internal/obsv -run Golden -update`.
func TestWideEventGolden(t *testing.T) {
	ev := &WideEvent{
		TraceID:              "00c0ffee00c0ffee00c0ffee00c0ffee",
		SpanID:               "00c0ffee00c0ffee",
		ParentSpanID:         "0badcafe0badcafe",
		TraceState:           "congo=t61rcWkgMzE",
		Time:                 "2026-01-02T03:04:05Z",
		Version:              "v1.2.3",
		Endpoint:             "query",
		Source:               "prod",
		Tenant:               "acme",
		Command:              "ERROR AND state:503",
		Status:               200,
		DurNS:                1500000,
		Matches:              7,
		Lines:                3000,
		CacheHit:             true,
		Partial:              true,
		PartialReason:        "scan budget exhausted",
		Queued:               true,
		StampAdmits:          11,
		StampSkips:           5,
		CapsuleScans:         16,
		ScanCacheHits:        2,
		BytesScanned:         4096,
		Decompressions:       14,
		Blocks:               6,
		BlocksSearched:       4,
		BlocksSkipped:        2,
		BudgetScanBytes:      1 << 20,
		BudgetDecompressions: 100,
		IngestBytes:          2048,
		IngestLines:          32,
		Spans: []Span{
			{Name: "filter", DurNS: 1000000, Attrs: []Attr{{Key: "capsule_scans", Val: 16}}},
			{Name: "verify", DurNS: 500000, Attrs: []Attr{{Key: "candidates_checked", Val: 9}}},
		},
	}
	var buf bytes.Buffer
	if err := ev.WriteLine(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wideevent.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("wide event wire shape drifted (run with -update if intended)\ngot:  %swant: %s", buf.String(), want)
	}
	// And it must round-trip.
	var back WideEvent
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != ev.TraceID || back.BytesScanned != ev.BytesScanned || len(back.Spans) != 2 {
		t.Errorf("round trip mangled event: %+v", back)
	}
}

func TestFillFromTrace(t *testing.T) {
	tr := NewTrace("query")
	sp := tr.StartSpan("filter")
	sp.Attr("capsule_scans", 10)
	sp.Attr("bytes_scanned", 2048)
	sp.Attr("stamp_skips", 3)
	sp.End()
	tr.Attr("matches", 4)
	tr.Attr("cache_hit", 1)
	tr.Attr("blocks", 5)

	var ev WideEvent
	ev.FillFromTrace(tr.Data())
	if ev.CapsuleScans != 10 || ev.BytesScanned != 2048 || ev.StampSkips != 3 {
		t.Errorf("span counters not summed: %+v", ev)
	}
	if ev.Matches != 4 || !ev.CacheHit || ev.Blocks != 5 {
		t.Errorf("trace attrs not mapped: %+v", ev)
	}
	if len(ev.Spans) != 1 || ev.DurNS <= 0 {
		t.Errorf("spans/duration missing: %+v", ev)
	}
}

func TestEventLogPolicy(t *testing.T) {
	// Threshold 0: everything emits.
	var buf bytes.Buffer
	l := NewEventLog(&buf, 0, 0)
	for i := 0; i < 3; i++ {
		if !l.Emit(&WideEvent{TraceID: "x", DurNS: int64(i)}) {
			t.Fatalf("threshold 0 dropped event %d", i)
		}
	}
	if l.Emitted() != 3 || len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 3 {
		t.Fatalf("emitted %d, buffer:\n%s", l.Emitted(), buf.String())
	}

	// Slow threshold: only slow events pass...
	buf.Reset()
	l = NewEventLog(&buf, time.Millisecond, 0)
	if l.Emit(&WideEvent{DurNS: int64(time.Microsecond)}) {
		t.Error("fast event emitted despite threshold")
	}
	if !l.Emit(&WideEvent{DurNS: int64(2 * time.Millisecond)}) {
		t.Error("slow event not emitted")
	}

	// ...unless sampling picks them up: every 2nd event emits regardless.
	buf.Reset()
	l = NewEventLog(&buf, time.Hour, 2)
	got := 0
	for i := 0; i < 10; i++ {
		if l.Emit(&WideEvent{DurNS: 1}) {
			got++
		}
	}
	if got != 5 {
		t.Errorf("sampled %d of 10, want 5", got)
	}

	// Nil log and nil event are no-ops.
	var nilLog *EventLog
	if nilLog.Emit(&WideEvent{}) || nilLog.Emitted() != 0 {
		t.Error("nil EventLog not inert")
	}
	if l.Emit(nil) {
		t.Error("nil event emitted")
	}
}
