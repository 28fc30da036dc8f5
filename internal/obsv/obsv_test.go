package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestConcurrentCounter(t *testing.T) {
	var c Counter
	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("Value = %d, want %d", got, workers*perWorker)
	}
}

func TestConcurrentHistogram(t *testing.T) {
	h := NewHistogram()
	const workers, perWorker = 8, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i + 1))
			}
		}(w)
	}
	wg.Wait()
	n := int64(workers * perWorker)
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if want := n * (n + 1) / 2; h.Sum() != want {
		t.Fatalf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Min() != 1 || h.Max() != n {
		t.Fatalf("Min/Max = %d/%d, want 1/%d", h.Min(), h.Max(), n)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..1000: quantile estimates must land within a factor of
	// two of the true value (the bucket resolution).
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	checks := []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("Quantile(%v) = %d, want within [%d, %d]", c.q, got, c.want/2, c.want*2)
		}
	}
	if p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99); p50 > p95 || p95 > p99 {
		t.Errorf("quantiles not monotonic: p50=%d p95=%d p99=%d", p50, p95, p99)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	// All mass on one value: min/max clamping must pin every quantile.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Fatalf("Quantile(%v) = %d, want 100", q, got)
		}
	}
	if h.Mean() != 100 {
		t.Fatalf("Mean = %v, want 100", h.Mean())
	}
}

func TestHistogramEmptyAndZero(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(0)
	if h.Quantile(0.5) != 0 || h.Count() != 1 {
		t.Fatal("zero observation must land in bucket 0")
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "a counter").Add(7)
	r.Histogram("test_ns", "ns", "a histogram").Observe(128)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var c int64
	if err := json.Unmarshal(got["test_total"], &c); err != nil || c != 7 {
		t.Fatalf("test_total = %s, want 7", got["test_total"])
	}
	var h HistogramSnapshot
	if err := json.Unmarshal(got["test_ns"], &h); err != nil {
		t.Fatal(err)
	}
	if h.Count != 1 || h.Sum != 128 || h.Unit != "ns" {
		t.Fatalf("test_ns snapshot = %+v", h)
	}
}

func TestRegistryProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests").Add(3)
	r.Counter(`lbl_total{endpoint="query"}`, "labeled").Add(2)
	r.Histogram(`lat_ns{endpoint="query"}`, "ns", "latency").Observe(1000)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		"req_total 3",
		`lbl_total{endpoint="query"} 2`,
		"# TYPE lat_ns summary",
		`lat_ns{endpoint="query",quantile="0.5"}`,
		`lat_ns_sum{endpoint="query"} 1000`,
		`lat_ns_count{endpoint="query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryReuseAndReset(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Add(5)
	h := r.Histogram("y_ns", "ns", "y")
	h.Observe(9)
	r.Reset()
	if a.Value() != 0 || h.Count() != 0 {
		t.Fatal("Reset must zero all metrics")
	}
	if got := r.sorted(); len(got) != 2 || got[0].name != "x_total" || got[1].name != "y_ns" {
		t.Fatalf("registered after Reset = %v", got)
	}
}

func TestRegistryGauge(t *testing.T) {
	r := NewRegistry()
	v := int64(7)
	r.Gauge("g_now", "a live value", func() int64 { return v })
	r.Gauge("g_now", "second registration ignored", func() int64 { return -1 })
	r.Counter("c_total", "c").Add(3)

	var prom bytes.Buffer
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE g_now gauge", "g_now 7"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prom output missing %q:\n%s", want, prom.String())
		}
	}

	v = 42 // callback gauges track the live value, not a stored one
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(js.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["g_now"] != 42 {
		t.Errorf("g_now = %d, want 42", m["g_now"])
	}

	r.Reset() // must not panic on gauges, and must leave them readable
	if got := r.CounterValues(); len(got) != 1 || got["c_total"] != 0 {
		t.Errorf("CounterValues after Reset = %v, want c_total=0 only", got)
	}
}

func TestCounterValuesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(2)
	r.Counter("b_total", "b").Add(5)
	r.Histogram("h_ns", "ns", "h").Observe(1)
	got := r.CounterValues()
	if len(got) != 2 || got["a_total"] != 2 || got["b_total"] != 5 {
		t.Fatalf("CounterValues = %v", got)
	}
	// Snapshot is a copy: mutating the map must not touch the registry.
	got["a_total"] = 99
	if r.CounterValues()["a_total"] != 2 {
		t.Error("CounterValues returned a live reference")
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Attr("k", 1)
	sc := tr.StartSpan("x")
	sc.Attr("a", 2).End()
	if tr.Outline() != "" || tr.String() != "" {
		t.Fatal("nil trace must render empty")
	}
	if d := tr.Data(); d.Name != "" || len(d.Spans) != 0 {
		t.Fatalf("nil trace Data = %+v", d)
	}
}

func TestTraceOutline(t *testing.T) {
	tr := NewTrace("query")
	tr.StartSpan("parse").End()
	tr.StartSpan("filter").Attr("candidates", 12).Attr("stamp_skips", 3).End()
	tr.StartSpan("verify").Attr("matches", 4).End()
	tr.Attr("lines", 100)
	want := "query lines=100\n" +
		"  parse\n" +
		"  filter candidates=12 stamp_skips=3\n" +
		"  verify matches=4\n"
	if got := tr.Outline(); got != want {
		t.Fatalf("Outline:\n%s\nwant:\n%s", got, want)
	}
	if s := tr.String(); !strings.Contains(s, "filter") || !strings.Contains(s, "candidates=12") {
		t.Fatalf("String missing span data:\n%s", s)
	}
	// Attrs overwrite by key.
	tr.Attr("lines", 101)
	if !strings.Contains(tr.Outline(), "lines=101") || strings.Contains(tr.Outline(), "lines=100") {
		t.Fatal("Attr must overwrite an existing key")
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.StartSpan("block").Attr("idx", int64(i)).End()
		}(i)
	}
	wg.Wait()
	if got := len(tr.Data().Spans); got != 32 {
		t.Fatalf("spans = %d, want 32", got)
	}
}
