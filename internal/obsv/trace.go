package obsv

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one counter attribute attached to a span or a trace.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// Span is one finished stage of a trace.
type Span struct {
	Name string `json:"name"`
	// StartNS is the span's start offset from the trace's start.
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Trace records the stages of one operation (typically one query). All
// methods are safe for concurrent use, and every method is a no-op on a
// nil *Trace, so instrumented code paths need no "is tracing on" branches.
type Trace struct {
	start time.Time

	mu    sync.Mutex
	name  string
	spans []Span
	attrs []Attr
	ids   ReqIDs
}

// NewTrace starts a trace.
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// SetName renames the trace: a Search names the one it is handed after what
// recorded it, so its caller need not know which kind of source it holds.
func (t *Trace) SetName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.name = name
	t.mu.Unlock()
}

// Attr attaches a trace-level counter, overwriting an existing key.
func (t *Trace) Attr(key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attrs = setAttr(t.attrs, key, v)
}

// AddAttr adds v to a trace-level counter, creating it at v. Totals that
// several parts of one query contribute to — an archive per segment of a
// stream — accumulate through it.
func (t *Trace) AddAttr(key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.attrs {
		if t.attrs[i].Key == key {
			t.attrs[i].Val += v
			return
		}
	}
	t.attrs = append(t.attrs, Attr{Key: key, Val: v})
}

func setAttr(attrs []Attr, key string, v int64) []Attr {
	for i := range attrs {
		if attrs[i].Key == key {
			attrs[i].Val = v
			return attrs
		}
	}
	return append(attrs, Attr{Key: key, Val: v})
}

// SpanCursor is an open span; End records it into the trace.
type SpanCursor struct {
	t     *Trace
	name  string
	t0    time.Time
	attrs []Attr
}

// StartSpan opens a span. The returned cursor's methods are nil-safe, so
// `defer t.StartSpan("x").End()` works even when t is nil.
func (t *Trace) StartSpan(name string) *SpanCursor {
	if t == nil {
		return nil
	}
	return &SpanCursor{t: t, name: name, t0: time.Now()}
}

// Attr attaches a counter to the span (overwriting an existing key) and
// returns the cursor for chaining.
func (sc *SpanCursor) Attr(key string, v int64) *SpanCursor {
	if sc == nil {
		return nil
	}
	sc.attrs = setAttr(sc.attrs, key, v)
	return sc
}

// End closes the span and appends it to the trace.
func (sc *SpanCursor) End() {
	if sc == nil {
		return
	}
	sp := Span{
		Name:    sc.name,
		StartNS: sc.t0.Sub(sc.t.start).Nanoseconds(),
		DurNS:   time.Since(sc.t0).Nanoseconds(),
		Attrs:   sc.attrs,
	}
	sc.t.mu.Lock()
	sc.t.spans = append(sc.t.spans, sp)
	sc.t.mu.Unlock()
}

// SetIDs attaches the request's trace identity to the trace (nil-safe).
// The server sets it on traces returned from query execution so the
// ?trace=1 response payload carries the same W3C ids as the X-Trace-Id
// header, the wide event, and the exported OTLP span.
func (t *Trace) SetIDs(ids ReqIDs) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ids = ids
	t.mu.Unlock()
}

// TraceData is a trace's JSON-ready snapshot.
type TraceData struct {
	Name string `json:"name"`
	// TraceID/SpanID/ParentSpanID are the W3C trace-context identity of
	// the request this trace ran under, when the server attached one
	// (SetIDs); empty for ad-hoc CLI traces.
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	DurNS        int64  `json:"dur_ns"`
	Spans        []Span `json:"spans"`
	Attrs        []Attr `json:"attrs,omitempty"`
}

// Data snapshots the trace (nil-safe; returns a zero TraceData on nil).
func (t *Trace) Data() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceData{
		Name:         t.name,
		TraceID:      t.ids.TraceID,
		SpanID:       t.ids.SpanID,
		ParentSpanID: t.ids.ParentSpanID,
		DurNS:        time.Since(t.start).Nanoseconds(),
		Spans:        append([]Span(nil), t.spans...),
		Attrs:        append([]Attr(nil), t.attrs...),
	}
}

// String renders the trace as a human-readable per-stage breakdown with
// timings — what `loggrep query -trace` prints.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	d := t.Data()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %s total", d.Name, fmtNS(d.DurNS))
	writeAttrs(&b, d.Attrs)
	b.WriteByte('\n')
	for _, sp := range d.Spans {
		fmt.Fprintf(&b, "  %-28s %10s", sp.Name, fmtNS(sp.DurNS))
		writeAttrs(&b, sp.Attrs)
		b.WriteByte('\n')
	}
	return b.String()
}

// Outline renders the deterministic part of the trace — span names in
// order with their counter attributes, no timings — for golden tests.
func (t *Trace) Outline() string {
	if t == nil {
		return ""
	}
	d := t.Data()
	var b strings.Builder
	b.WriteString(d.Name)
	writeAttrs(&b, d.Attrs)
	b.WriteByte('\n')
	for _, sp := range d.Spans {
		b.WriteString("  " + sp.Name)
		writeAttrs(&b, sp.Attrs)
		b.WriteByte('\n')
	}
	return b.String()
}

func writeAttrs(b *strings.Builder, attrs []Attr) {
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%d", a.Key, a.Val)
	}
}

// fmtNS renders a nanosecond duration at a human scale.
func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
