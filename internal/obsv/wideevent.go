package obsv

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// WideEvent is one query's wide observability record: a single structured
// event carrying everything known about the request, emitted as one JSON
// line. loggrepd writes one per request (see server.Server.Events) and
// `loggrep query -trace=json` emits the same shape for ad-hoc runs.
type WideEvent struct {
	TraceID string `json:"trace_id"`
	// SpanID is the span this process opened for the request;
	// ParentSpanID is the caller's span when the request arrived with a
	// W3C traceparent header (empty for locally rooted traces), and
	// TraceState carries the caller's tracestate verbatim. Together they
	// make the event joinable to the exported OTLP span.
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	TraceState   string `json:"tracestate,omitempty"`
	Time         string `json:"time,omitempty"`
	Version      string `json:"version,omitempty"`

	// Request identity. Tenant is the accountable party (explicit
	// ?tenant=/X-Loggrep-Tenant, the source name's tenant prefix, or
	// "default") — the key the liveops usage meter aggregates under.
	Endpoint string `json:"endpoint,omitempty"`
	Source   string `json:"source,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Command  string `json:"command"`

	// Outcome. Status is the HTTP status code (0 when no response was
	// written, e.g. the client vanished mid-query).
	Status        int    `json:"status,omitempty"`
	DurNS         int64  `json:"dur_ns"`
	Error         string `json:"error,omitempty"`
	Matches       int64  `json:"matches"`
	Lines         int64  `json:"lines,omitempty"`
	CacheHit      bool   `json:"cache_hit"`
	Partial       bool   `json:"partial,omitempty"`
	PartialReason string `json:"partial_reason,omitempty"`

	// Admission state: whether the request waited in the admission queue
	// and whether it was shed outright (429).
	Queued bool `json:"queued,omitempty"`
	Shed   bool `json:"shed,omitempty"`

	// Work counters, summed across all stages and blocks.
	StampAdmits    int64 `json:"stamp_admits"`
	StampSkips     int64 `json:"stamp_skips"`
	CapsuleScans   int64 `json:"capsule_scans"`
	ScanCacheHits  int64 `json:"scan_cache_hits"`
	BytesScanned   int64 `json:"bytes_scanned"`
	Decompressions int64 `json:"decompressions"`

	// Write-path volume (zero for read requests): bytes and lines
	// durably acknowledged by this ingest request.
	IngestBytes int64 `json:"ingest_bytes,omitempty"`
	IngestLines int64 `json:"ingest_lines,omitempty"`

	// Archive shape (zero for single-box sources).
	Blocks         int64 `json:"blocks,omitempty"`
	BlocksSearched int64 `json:"blocks_searched,omitempty"`
	BlocksSkipped  int64 `json:"blocks_skipped,omitempty"`
	DamagedRegions int64 `json:"damaged_regions,omitempty"`

	// Budget caps in force (0 = unlimited); BytesScanned and
	// Decompressions above are the budget actually consumed.
	BudgetScanBytes      int64 `json:"budget_scan_bytes,omitempty"`
	BudgetDecompressions int64 `json:"budget_decompressions,omitempty"`

	// Blob-layer activity under this request, from the fault-policy
	// store's per-request accounting: operations issued, retries spent on
	// transient failures, operations shed by an open breaker, and
	// operations that ultimately failed. All zero when every read was
	// cache-resident or healthy on the first attempt.
	BlobOps     int64 `json:"blob_ops,omitempty"`
	BlobRetries int64 `json:"blob_retries,omitempty"`
	BlobShed    int64 `json:"blob_shed,omitempty"`
	BlobFailed  int64 `json:"blob_failed,omitempty"`

	// Per-stage span timings, verbatim from the query trace.
	Spans []Span `json:"spans,omitempty"`
}

// FillFromTrace folds a query trace into the event: spans are attached
// verbatim, per-span work counters are summed, and trace-level attributes
// map onto the corresponding event fields.
func (e *WideEvent) FillFromTrace(d TraceData) {
	e.Spans = d.Spans
	if e.DurNS == 0 {
		e.DurNS = d.DurNS
	}
	for _, sp := range d.Spans {
		for _, a := range sp.Attrs {
			switch a.Key {
			case "stamp_admits":
				e.StampAdmits += a.Val
			case "stamp_skips":
				e.StampSkips += a.Val
			case "capsule_scans":
				e.CapsuleScans += a.Val
			case "scan_cache_hits":
				e.ScanCacheHits += a.Val
			case "bytes_scanned":
				e.BytesScanned += a.Val
			case "decompressions":
				e.Decompressions += a.Val
			}
		}
	}
	for _, a := range d.Attrs {
		switch a.Key {
		case "lines":
			e.Lines = a.Val
		case "matches":
			e.Matches = a.Val
		case "cache_hit":
			e.CacheHit = a.Val != 0
		case "partial":
			e.Partial = a.Val != 0
		case "blocks":
			e.Blocks = a.Val
		case "blocks_searched":
			e.BlocksSearched = a.Val
		case "blocks_skipped":
			e.BlocksSkipped = a.Val
		case "damaged_regions":
			e.DamagedRegions = a.Val
		}
	}
}

// WriteLine marshals the event as one JSON line.
func (e *WideEvent) WriteLine(w io.Writer) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// EventLog serializes wide events as JSON lines to a writer, applying a
// threshold-or-sampled emission policy:
//
//   - events at least as slow as the threshold always emit (threshold 0
//     means every event);
//   - independently, every sampleEvery-th event emits regardless of
//     duration (0 disables sampling), so a healthy baseline stays visible
//     even when nothing is slow.
//
// All methods are safe for concurrent use and nil-safe, so callers can
// emit unconditionally.
type EventLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	every     int64
	seen      atomic.Int64
	emitted   atomic.Int64
}

// NewEventLog returns an event log writing to w with the given policy.
func NewEventLog(w io.Writer, threshold time.Duration, sampleEvery int) *EventLog {
	return &EventLog{w: w, threshold: threshold, every: int64(sampleEvery)}
}

// Emit applies the policy and writes the event as one JSON line. Returns
// true when the event was written.
func (l *EventLog) Emit(e *WideEvent) bool {
	if l == nil || e == nil {
		return false
	}
	n := l.seen.Add(1)
	slow := e.DurNS >= l.threshold.Nanoseconds()
	sampled := l.every > 0 && n%l.every == 0
	if !slow && !sampled {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := e.WriteLine(l.w); err != nil {
		return false
	}
	l.emitted.Add(1)
	return true
}

// Emitted returns how many events have been written so far.
func (l *EventLog) Emitted() int64 {
	if l == nil {
		return 0
	}
	return l.emitted.Load()
}
