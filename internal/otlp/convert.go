package otlp

import (
	"hash/fnv"
	"strconv"
	"time"

	"loggrep/internal/obsv"
)

// The wire structs below are the proto3 JSON mapping of
// opentelemetry-proto v1 (trace/v1, metrics/v1, common/v1, resource/v1),
// restricted to the fields LogGrep emits. Per the OTLP spec, trace and
// span ids are hex-encoded strings (an OTLP-JSON special case) and
// 64-bit integers are decimal strings.

type anyValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"`
	BoolValue   *bool   `json:"boolValue,omitempty"`
}

type keyValue struct {
	Key   string   `json:"key"`
	Value anyValue `json:"value"`
}

func strAttr(k, v string) keyValue {
	return keyValue{Key: k, Value: anyValue{StringValue: &v}}
}

func intAttr(k string, v int64) keyValue {
	s := strconv.FormatInt(v, 10)
	return keyValue{Key: k, Value: anyValue{IntValue: &s}}
}

func boolAttr(k string, v bool) keyValue {
	return keyValue{Key: k, Value: anyValue{BoolValue: &v}}
}

type resource struct {
	Attributes []keyValue `json:"attributes,omitempty"`
}

type scope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// --- traces ---

type tracesPayload struct {
	ResourceSpans []resourceSpans `json:"resourceSpans"`
}

type resourceSpans struct {
	Resource   resource     `json:"resource"`
	ScopeSpans []scopeSpans `json:"scopeSpans"`
}

type scopeSpans struct {
	Scope scope  `json:"scope"`
	Spans []span `json:"spans"`
}

type span struct {
	TraceID           string      `json:"traceId"`
	SpanID            string      `json:"spanId"`
	TraceState        string      `json:"traceState,omitempty"`
	ParentSpanID      string      `json:"parentSpanId,omitempty"`
	Name              string      `json:"name"`
	Kind              int         `json:"kind,omitempty"`
	StartTimeUnixNano string      `json:"startTimeUnixNano"`
	EndTimeUnixNano   string      `json:"endTimeUnixNano"`
	Attributes        []keyValue  `json:"attributes,omitempty"`
	Events            []spanEvent `json:"events,omitempty"`
	Status            *spanStatus `json:"status,omitempty"`
}

type spanEvent struct {
	TimeUnixNano string     `json:"timeUnixNano"`
	Name         string     `json:"name"`
	Attributes   []keyValue `json:"attributes,omitempty"`
}

// spanStatus codes per opentelemetry-proto: 0 unset, 1 ok, 2 error.
type spanStatus struct {
	Message string `json:"message,omitempty"`
	Code    int    `json:"code,omitempty"`
}

const (
	spanKindServer   = 2
	statusCodeError  = 2
	scopeName        = "loggrep/internal/otlp"
	instrumentedName = "loggrepd"
)

// --- metrics ---

type metricsPayload struct {
	ResourceMetrics []resourceMetrics `json:"resourceMetrics"`
}

type resourceMetrics struct {
	Resource     resource       `json:"resource"`
	ScopeMetrics []scopeMetrics `json:"scopeMetrics"`
}

type scopeMetrics struct {
	Scope   scope    `json:"scope"`
	Metrics []metric `json:"metrics"`
}

type metric struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Unit        string   `json:"unit,omitempty"`
	Sum         *sum     `json:"sum,omitempty"`
	Gauge       *gauge   `json:"gauge,omitempty"`
	Summary     *summary `json:"summary,omitempty"`
}

type sum struct {
	DataPoints []numberDataPoint `json:"dataPoints"`
	// AggregationTemporality 2 = cumulative: every point covers the whole
	// process lifetime, which is exactly what monotonic obsv counters are.
	AggregationTemporality int  `json:"aggregationTemporality"`
	IsMonotonic            bool `json:"isMonotonic"`
}

type gauge struct {
	DataPoints []numberDataPoint `json:"dataPoints"`
}

type numberDataPoint struct {
	Attributes        []keyValue `json:"attributes,omitempty"`
	StartTimeUnixNano string     `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string     `json:"timeUnixNano"`
	AsInt             string     `json:"asInt"`
}

type summary struct {
	DataPoints []summaryDataPoint `json:"dataPoints"`
}

type summaryDataPoint struct {
	Attributes        []keyValue      `json:"attributes,omitempty"`
	StartTimeUnixNano string          `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string          `json:"timeUnixNano"`
	Count             string          `json:"count"`
	Sum               float64         `json:"sum"`
	QuantileValues    []quantileValue `json:"quantileValues,omitempty"`
}

type quantileValue struct {
	Quantile float64 `json:"quantile"`
	Value    float64 `json:"value"`
}

const aggregationCumulative = 2

func unixNano(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// buildResource renders the export resource: who this process is
// (service.name/service.version from internal/version) plus whatever
// extra attributes the exporter was configured with (loggrepd stamps its
// flags), key-sorted by the caller.
func buildResource(serviceName, serviceVersion string, extra []keyValue) resource {
	attrs := []keyValue{
		strAttr("service.name", serviceName),
		strAttr("service.version", serviceVersion),
	}
	return resource{Attributes: append(attrs, extra...)}
}

// convertEvent renders one finished wide event as OTLP spans: the request
// as a SERVER root span (identified by the event's own trace/span ids, so
// it joins the caller's trace when one was propagated), each per-stage
// obsv span as a child, scalar outcome fields as attributes, and the
// notable moments (error, partial, queued, shed) as span events.
//
// fallbackEnd anchors events with no parseable Time field (ad-hoc CLI
// events); child span ids are derived deterministically from the root
// identity so the conversion is a pure function of its inputs.
func convertEvent(ev *obsv.WideEvent, fallbackEnd time.Time) []span {
	end := fallbackEnd
	if ev.Time != "" {
		if t, err := time.Parse(time.RFC3339Nano, ev.Time); err == nil {
			// ev.Time is stamped at request start.
			end = t.Add(time.Duration(ev.DurNS))
		}
	}
	start := end.Add(-time.Duration(ev.DurNS))

	name := ev.Endpoint
	if name == "" {
		name = "query"
	}
	root := span{
		TraceID:           ev.TraceID,
		SpanID:            ev.SpanID,
		TraceState:        ev.TraceState,
		ParentSpanID:      ev.ParentSpanID,
		Name:              name,
		Kind:              spanKindServer,
		StartTimeUnixNano: unixNano(start),
		EndTimeUnixNano:   unixNano(end),
		Attributes:        eventAttrs(ev),
		Events:            eventEvents(ev, end),
	}
	if ev.Error != "" || ev.Status >= 500 {
		root.Status = &spanStatus{Code: statusCodeError, Message: ev.Error}
	}
	out := make([]span, 0, 1+len(ev.Spans))
	out = append(out, root)
	for i, sp := range ev.Spans {
		st := start.Add(time.Duration(sp.StartNS))
		child := span{
			TraceID:           ev.TraceID,
			SpanID:            childSpanID(ev.TraceID, ev.SpanID, i, sp.Name),
			ParentSpanID:      ev.SpanID,
			Name:              sp.Name,
			StartTimeUnixNano: unixNano(st),
			EndTimeUnixNano:   unixNano(st.Add(time.Duration(sp.DurNS))),
		}
		for _, a := range sp.Attrs {
			child.Attributes = append(child.Attributes, intAttr("loggrep."+a.Key, a.Val))
		}
		out = append(out, child)
	}
	return out
}

// eventAttrs maps the wide event's scalar fields onto root-span
// attributes. Zero-valued optional fields are omitted, mirroring the
// event's own omitempty JSON shape.
func eventAttrs(ev *obsv.WideEvent) []keyValue {
	attrs := []keyValue{}
	add := func(k string, v int64) {
		if v != 0 {
			attrs = append(attrs, intAttr(k, v))
		}
	}
	if ev.Tenant != "" {
		attrs = append(attrs, strAttr("loggrep.tenant", ev.Tenant))
	}
	if ev.Source != "" {
		attrs = append(attrs, strAttr("loggrep.source", ev.Source))
	}
	if ev.Command != "" {
		attrs = append(attrs, strAttr("loggrep.command", ev.Command))
	}
	if ev.Version != "" {
		attrs = append(attrs, strAttr("loggrep.version", ev.Version))
	}
	add("http.response.status_code", int64(ev.Status))
	attrs = append(attrs, intAttr("loggrep.matches", ev.Matches))
	if ev.CacheHit {
		attrs = append(attrs, boolAttr("loggrep.cache_hit", true))
	}
	if ev.Partial {
		attrs = append(attrs, boolAttr("loggrep.partial", true))
		attrs = append(attrs, strAttr("loggrep.partial_reason", ev.PartialReason))
	}
	add("loggrep.lines", ev.Lines)
	add("loggrep.stamp_admits", ev.StampAdmits)
	add("loggrep.stamp_skips", ev.StampSkips)
	add("loggrep.capsule_scans", ev.CapsuleScans)
	add("loggrep.scan_cache_hits", ev.ScanCacheHits)
	add("loggrep.bytes_scanned", ev.BytesScanned)
	add("loggrep.decompressions", ev.Decompressions)
	add("loggrep.blocks", ev.Blocks)
	add("loggrep.blocks_searched", ev.BlocksSearched)
	add("loggrep.blocks_skipped", ev.BlocksSkipped)
	add("loggrep.damaged_regions", ev.DamagedRegions)
	add("loggrep.blob_ops", ev.BlobOps)
	add("loggrep.blob_retries", ev.BlobRetries)
	add("loggrep.blob_shed", ev.BlobShed)
	add("loggrep.blob_failed", ev.BlobFailed)
	return attrs
}

// eventEvents renders the request's notable moments as OTLP span events,
// stamped at the span's end (the wide event records that they happened,
// not when).
func eventEvents(ev *obsv.WideEvent, end time.Time) []spanEvent {
	var out []spanEvent
	ts := unixNano(end)
	if ev.Queued {
		out = append(out, spanEvent{TimeUnixNano: ts, Name: "admission.queued"})
	}
	if ev.Shed {
		out = append(out, spanEvent{TimeUnixNano: ts, Name: "admission.shed"})
	}
	if ev.Partial {
		out = append(out, spanEvent{TimeUnixNano: ts, Name: "partial_result",
			Attributes: []keyValue{strAttr("reason", ev.PartialReason)}})
	}
	if ev.Error != "" {
		out = append(out, spanEvent{TimeUnixNano: ts, Name: "error",
			Attributes: []keyValue{strAttr("message", ev.Error)}})
	}
	return out
}

// childSpanID derives a per-stage span id deterministically from the
// root identity, so re-converting the same event yields the same spans
// (golden tests) without coordinating random draws across goroutines.
func childSpanID(traceID, rootSpanID string, idx int, name string) string {
	h := fnv.New64a()
	h.Write([]byte(traceID))
	h.Write([]byte{'|'})
	h.Write([]byte(rootSpanID))
	h.Write([]byte{'|'})
	h.Write([]byte(strconv.Itoa(idx)))
	h.Write([]byte{'|'})
	h.Write([]byte(name))
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// convertMetrics renders a registry snapshot as OTLP metrics: counters
// as cumulative monotonic sums, gauges as gauges, histograms as
// summaries carrying count/sum and the p50/p95/p99 quantiles — the same
// view /metrics exposes in Prometheus text.
func convertMetrics(points []obsv.MetricPoint, start, now time.Time) []metric {
	startS, nowS := unixNano(start), unixNano(now)
	// Points arrive name-sorted, so same-family label variants are
	// adjacent: fold them into one metric with multiple data points.
	var out []metric
	for _, p := range points {
		var attrs []keyValue
		for _, l := range p.Labels {
			attrs = append(attrs, strAttr(l.Key, l.Value))
		}
		cur := metric{Name: p.Name, Description: p.Help, Unit: p.Unit}
		prev := -1
		if len(out) > 0 && out[len(out)-1].Name == p.Name {
			prev = len(out) - 1
		}
		switch p.Kind {
		case obsv.KindCounter:
			dp := numberDataPoint{Attributes: attrs, StartTimeUnixNano: startS,
				TimeUnixNano: nowS, AsInt: strconv.FormatInt(p.Value, 10)}
			if prev >= 0 && out[prev].Sum != nil {
				out[prev].Sum.DataPoints = append(out[prev].Sum.DataPoints, dp)
				continue
			}
			cur.Sum = &sum{DataPoints: []numberDataPoint{dp},
				AggregationTemporality: aggregationCumulative, IsMonotonic: true}
		case obsv.KindGauge:
			dp := numberDataPoint{Attributes: attrs, TimeUnixNano: nowS,
				AsInt: strconv.FormatInt(p.Value, 10)}
			if prev >= 0 && out[prev].Gauge != nil {
				out[prev].Gauge.DataPoints = append(out[prev].Gauge.DataPoints, dp)
				continue
			}
			cur.Gauge = &gauge{DataPoints: []numberDataPoint{dp}}
		case obsv.KindHistogram:
			dp := summaryDataPoint{Attributes: attrs, StartTimeUnixNano: startS,
				TimeUnixNano: nowS,
				Count:        strconv.FormatInt(p.Hist.Count, 10),
				Sum:          float64(p.Hist.Sum),
				QuantileValues: []quantileValue{
					{Quantile: 0.5, Value: float64(p.Hist.P50)},
					{Quantile: 0.95, Value: float64(p.Hist.P95)},
					{Quantile: 0.99, Value: float64(p.Hist.P99)},
				}}
			if prev >= 0 && out[prev].Summary != nil {
				out[prev].Summary.DataPoints = append(out[prev].Summary.DataPoints, dp)
				continue
			}
			cur.Summary = &summary{DataPoints: []summaryDataPoint{dp}}
		}
		out = append(out, cur)
	}
	return out
}
