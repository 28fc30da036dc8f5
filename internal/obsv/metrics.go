package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// reset zeroes the counter (registry Reset only; not part of the public
// metric contract, which is monotonic).
func (c *Counter) reset() { c.v.Store(0) }

// numBuckets covers every int64: bucket 0 holds values <= 0, bucket i
// (1 <= i <= 63) holds values v with 2^(i-1) <= v < 2^i.
const numBuckets = 64

// Histogram records a distribution of int64 values (latencies in
// nanoseconds, sizes in bytes) in exponential base-2 buckets. Observations
// are lock-free atomic adds; quantiles are estimated from the buckets,
// interpolating linearly within the containing bucket, so they are accurate
// to the bucket's factor-of-two resolution. The zero value is NOT ready:
// use NewHistogram (or Registry.Histogram).
type Histogram struct {
	count     atomic.Int64
	sum       atomic.Int64
	min       atomic.Int64
	max       atomic.Int64
	buckets   [numBuckets]atomic.Int64
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace that produced it, so an
// operator can jump from a latency bucket to the exact wide event.
type Exemplar struct {
	// BucketLo is the lower bound of the bucket the value landed in.
	BucketLo int64  `json:"bucket_lo"`
	Value    int64  `json:"value"`
	TraceID  string `json:"trace_id"`
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveExemplar records one value and remembers traceID as the bucket's
// exemplar. Buckets are a factor of two wide, so keeping the most recent
// observation per bucket yields the trace of the slowest recent request to
// within 2x — good enough to chase a p99 spike to a concrete event.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	b := bucketOf(v)
	lo, _ := bucketBounds(b)
	h.exemplars[b].Store(&Exemplar{BucketLo: lo, Value: v, TraceID: traceID})
}

// Exemplars returns the current per-bucket exemplars, lowest bucket first.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for i := 0; i < numBuckets; i++ {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..63 for v >= 1
}

// bucketBounds returns the value range [lo, hi] bucket i covers.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Min returns the smallest observed value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the buckets: it
// walks to the bucket holding the q-ranked observation and interpolates
// linearly inside it. Concurrent observations may skew the estimate by the
// in-flight updates, never more.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n-1)
	seen := int64(0)
	for i := 0; i < numBuckets; i++ {
		bc := h.buckets[i].Load()
		if bc == 0 {
			continue
		}
		if float64(seen+bc) > rank {
			lo, hi := bucketBounds(i)
			// Clamp to the observed extremes so single-bucket
			// distributions report sensible values.
			if mn := h.min.Load(); mn > lo {
				lo = mn
			}
			if mx := h.max.Load(); mx < hi {
				hi = mx
			}
			if hi <= lo {
				return lo
			}
			frac := (rank - float64(seen)) / float64(bc)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += bc
	}
	return h.Max()
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	for i := range h.buckets {
		h.buckets[i].Store(0)
		h.exemplars[i].Store(nil)
	}
}

// HistogramSnapshot is the JSON shape of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Unit  string  `json:"unit,omitempty"`

	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot captures the histogram's current summary.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),

		Exemplars: h.Exemplars(),
	}
}

// metric is one registered metric: exactly one of c/h/g is set.
type metric struct {
	name string // full name, possibly with a {label="value"} suffix
	help string
	unit string
	c    *Counter
	h    *Histogram
	g    func() int64
}

// family splits the metric name into its Prometheus family name and label
// part: `a_total{endpoint="query"}` -> (`a_total`, `endpoint="query"`).
func (m *metric) family() (string, string) {
	if i := strings.IndexByte(m.name, '{'); i >= 0 {
		return m.name[:i], strings.TrimSuffix(m.name[i+1:], "}")
	}
	return m.name, ""
}

// Registry holds named metrics. Metric names follow Prometheus
// conventions (snake_case, unit-suffixed, `_total` for counters) and may
// carry a constant label set in braces, e.g.
// `loggrep_http_requests_total{endpoint="query"}`.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry every LogGrep subsystem records
// into; internal/server serves it at /metrics.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it (with the
// given help text) on first use. Re-registration with a different help
// string keeps the first.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.c != nil {
		return m.c
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, help: help, c: c}
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use. unit names the observed value's unit ("ns", "bytes", "1") and
// is reported in exports.
func (r *Registry) Histogram(name, unit, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.h != nil {
		return m.h
	}
	h := NewHistogram()
	r.metrics[name] = &metric{name: name, help: help, unit: unit, h: h}
	return h
}

// Gauge registers a callback gauge: fn is invoked at export time, so the
// value is always the instant of the scrape (runtime stats, ring fill
// levels). First registration wins; later calls with the same name are
// no-ops. fn must be safe for concurrent use.
func (r *Registry) Gauge(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; ok {
		return
	}
	r.metrics[name] = &metric{name: name, help: help, g: fn}
}

// MetricKind says which of a MetricPoint's value fields is meaningful.
type MetricKind int

const (
	// KindCounter is a monotonically increasing counter (Value).
	KindCounter MetricKind = iota
	// KindGauge is a point-in-time callback gauge (Value).
	KindGauge
	// KindHistogram is a distribution (Hist).
	KindHistogram
)

// Label is one constant label parsed from a metric name's {k="v"} suffix.
type Label struct {
	Key   string
	Value string
}

// MetricPoint is one registered metric's identity and current value — the
// structured form of the registry that exporters (internal/otlp) and
// hygiene checks consume. Name is the family name with any {k="v"} suffix
// stripped into Labels.
type MetricPoint struct {
	Name   string
	Labels []Label
	Help   string
	Unit   string
	Kind   MetricKind
	// Value is the counter or gauge reading (zero for histograms).
	Value int64
	// Hist is the distribution summary (zero for counters and gauges).
	Hist HistogramSnapshot
}

// parseLabels splits a `k="v",k2="v2"` label suffix into pairs. Malformed
// tails (impossible for names built by this package's users via fmt %q)
// are returned as a single opaque label so nothing is silently dropped.
func parseLabels(s string) []Label {
	if s == "" {
		return nil
	}
	var out []Label
	for len(s) > 0 {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return append(out, Label{Key: "_raw", Value: s})
		}
		key := s[:eq]
		rest := s[eq+2:]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			return append(out, Label{Key: "_raw", Value: s})
		}
		out = append(out, Label{Key: key, Value: rest[:end]})
		s = strings.TrimPrefix(rest[end+1:], ",")
	}
	return out
}

// Snapshot captures every registered metric as a MetricPoint, name-sorted.
// Counter and gauge values and histogram summaries are read at call time.
func (r *Registry) Snapshot() []MetricPoint {
	ms := r.sorted()
	out := make([]MetricPoint, 0, len(ms))
	for _, m := range ms {
		fam, labels := m.family()
		p := MetricPoint{Name: fam, Labels: parseLabels(labels), Help: m.help, Unit: m.unit}
		switch {
		case m.c != nil:
			p.Kind = KindCounter
			p.Value = m.c.Value()
		case m.g != nil:
			p.Kind = KindGauge
			p.Value = m.g()
		default:
			p.Kind = KindHistogram
			p.Hist = m.h.Snapshot()
			p.Hist.Unit = m.unit
		}
		out = append(out, p)
	}
	return out
}

// CounterValues snapshots every registered counter's current value —
// the delta feed for the flight recorder's per-second metrics ring.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.metrics))
	for name, m := range r.metrics {
		if m.c != nil {
			out[name] = m.c.Value()
		}
	}
	return out
}

// sorted returns the registered metrics in name order.
func (r *Registry) sorted() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Reset zeroes every registered counter and histogram (tests and
// benchmark harnesses). Gauges are callbacks and have no state to reset.
func (r *Registry) Reset() {
	for _, m := range r.sorted() {
		switch {
		case m.c != nil:
			m.c.reset()
		case m.h != nil:
			m.h.reset()
		}
	}
}

// WriteJSON writes the registry as one JSON object: counters as numbers,
// histograms as HistogramSnapshot objects, keys sorted.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, m := range r.sorted() {
		if m.c != nil {
			out[m.name] = m.c.Value()
			continue
		}
		if m.g != nil {
			out[m.name] = m.g()
			continue
		}
		s := m.h.Snapshot()
		s.Unit = m.unit
		out[m.name] = s
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteProm writes the registry in the Prometheus text exposition format:
// counters as `counter` families, histograms as `summary` families with
// p50/p95/p99 quantile series plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	lastFam := ""
	for _, m := range r.sorted() {
		fam, labels := m.family()
		if fam != lastFam {
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, m.help); err != nil {
					return err
				}
			}
			typ := "counter"
			switch {
			case m.h != nil:
				typ = "summary"
			case m.g != nil:
				typ = "gauge"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ); err != nil {
				return err
			}
			lastFam = fam
		}
		if m.c != nil {
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value()); err != nil {
				return err
			}
			continue
		}
		if m.g != nil {
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.g()); err != nil {
				return err
			}
			continue
		}
		for _, q := range []struct {
			q string
			v int64
		}{
			{"0.5", m.h.Quantile(0.50)},
			{"0.95", m.h.Quantile(0.95)},
			{"0.99", m.h.Quantile(0.99)},
		} {
			series := fam + "{" + labels
			if labels != "" {
				series += ","
			}
			series += `quantile="` + q.q + `"}`
			if _, err := fmt.Fprintf(w, "%s %d\n", series, q.v); err != nil {
				return err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
			fam, suffix, m.h.Sum(), fam, suffix, m.h.Count()); err != nil {
			return err
		}
		// The classic text format has no exemplar syntax (that is
		// OpenMetrics-only), so expose them as comment lines: harmless
		// to every scraper, greppable by operators.
		for _, e := range m.h.Exemplars() {
			if _, err := fmt.Fprintf(w, "# EXEMPLAR %s bucket_lo=%d value=%d trace_id=%q\n",
				m.name, e.BucketLo, e.Value, e.TraceID); err != nil {
				return err
			}
		}
	}
	return nil
}
