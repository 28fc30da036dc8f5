package otlp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/obsv"
	"loggrep/internal/retry"
	"loggrep/internal/version"
)

// Config configures an Exporter. The zero value of every field picks the
// documented default; Endpoint is the only required field.
type Config struct {
	// Endpoint is the collector's OTLP/HTTP base URL, e.g.
	// "http://localhost:4318"; the exporter POSTs JSON to
	// <Endpoint>/v1/traces and <Endpoint>/v1/metrics.
	Endpoint string
	// Interval is both the maximum age of a span batch and the metrics
	// push cadence (default 10s).
	Interval time.Duration
	// QueueSize bounds the in-memory span queue (default 1024). A full
	// queue drops new events with a counter — the hot path never blocks.
	QueueSize int
	// BatchSize caps the wide events per trace POST (default 128).
	BatchSize int
	// Timeout bounds each POST attempt (default 5s).
	Timeout time.Duration
	// MaxAttempts is the total POST attempts per payload, the first one
	// included (default 3; 1 disables retries). Only transient failures
	// (HTTP 429/5xx, network errors) are retried; other 4xx responses are
	// terminal and drop the payload — mirroring internal/blobstore's
	// retryable/terminal taxonomy.
	MaxAttempts int
	// BackoffBase seeds the full-jitter exponential backoff between
	// retries (default 100ms); BackoffMax caps it (default 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ServiceName is the resource's service.name (default "loggrepd");
	// service.version is always internal/version.Version.
	ServiceName string
	// Resource adds extra resource attributes (loggrepd stamps its
	// explicitly-set flags here), exported key-sorted.
	Resource map[string]string
	// Registry is the metrics source pushed every Interval (default
	// obsv.Default).
	Registry *obsv.Registry
	// Client is the HTTP client for POSTs (default a plain &http.Client;
	// per-attempt deadlines come from Timeout, not the client).
	Client *http.Client

	// Test seams; nil uses the real clock, sleep, and math/rand.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
	rnd   func() float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.ServiceName == "" {
		c.ServiceName = instrumentedName
	}
	if c.Registry == nil {
		c.Registry = obsv.Default
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.rnd == nil {
		var mu sync.Mutex
		r := rand.New(rand.NewSource(c.now().UnixNano()))
		c.rnd = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return r.Float64()
		}
	}
	return c
}

// Exporter is the OTLP export pipeline: a bounded queue of finished
// request wide events drained by one background goroutine that batches
// them into OTLP/HTTP JSON trace POSTs and pushes a registry metrics
// snapshot every interval. ExportEvent never blocks; all methods are
// nil-safe so callers wire the exporter unconditionally.
type Exporter struct {
	cfg Config
	res resource

	q     chan *obsv.WideEvent
	stop  chan struct{}
	done  chan struct{}
	start time.Time

	mu       sync.Mutex
	started  bool
	closed   bool
	flushCtx context.Context

	// inFlush marks the loop's final drain: retry backoffs then wait out
	// their timer (bounded by the flush ctx) instead of aborting on the
	// closed stop channel.
	inFlush atomic.Bool
}

// errStopping aborts an in-flight retry sleep when shutdown begins so
// the final flush is not stuck behind a backoff against a dead collector.
var errStopping = errors.New("otlp: exporter stopping")

// New returns an exporter for cfg. Call Start to launch the background
// sender and Close to flush and stop it.
func New(cfg Config) *Exporter {
	cfg = cfg.withDefaults()
	keys := make([]string, 0, len(cfg.Resource))
	for k := range cfg.Resource {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var extra []keyValue
	for _, k := range keys {
		extra = append(extra, strAttr(k, cfg.Resource[k]))
	}
	return &Exporter{
		cfg:   cfg,
		res:   buildResource(cfg.ServiceName, version.Version, extra),
		q:     make(chan *obsv.WideEvent, cfg.QueueSize),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		start: cfg.now(),
	}
}

// Start launches the background sender (idempotent).
func (e *Exporter) Start() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started || e.closed {
		return
	}
	e.started = true
	go e.loop()
}

// ExportEvent enqueues one finished wide event for export. It never
// blocks: when the queue is full the event is dropped and
// loggrep_otlp_dropped_total{reason="queue_full"} incremented. Nil
// exporter and nil event are no-ops.
func (e *Exporter) ExportEvent(ev *obsv.WideEvent) {
	if e == nil || ev == nil {
		return
	}
	select {
	case e.q <- ev:
		queueDepth.Store(int64(len(e.q)))
	default:
		mDroppedQueueFull.Inc()
	}
}

// Close flushes — drains the queue, sends the remaining spans, pushes a
// final metrics snapshot — and stops the sender. ctx bounds the flush;
// loggrepd calls it inside the graceful-shutdown grace period. Close is
// idempotent and nil-safe.
func (e *Exporter) Close(ctx context.Context) error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		started := e.started
		e.mu.Unlock()
		if !started {
			return nil
		}
		<-e.done
		return nil
	}
	e.closed = true
	e.flushCtx = ctx
	started := e.started
	e.mu.Unlock()
	close(e.stop)
	if !started {
		return nil
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop is the background sender.
func (e *Exporter) loop() {
	defer close(e.done)
	batch := make([]*obsv.WideEvent, 0, e.cfg.BatchSize)
	tick := time.NewTicker(e.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case ev := <-e.q:
			queueDepth.Store(int64(len(e.q)))
			batch = append(batch, ev)
			if len(batch) >= e.cfg.BatchSize {
				e.sendSpans(context.Background(), batch)
				batch = batch[:0]
			}
		case <-tick.C:
			if len(batch) > 0 {
				e.sendSpans(context.Background(), batch)
				batch = batch[:0]
			}
			e.pushMetrics(context.Background())
		case <-e.stop:
			e.mu.Lock()
			fctx := e.flushCtx
			e.mu.Unlock()
			if fctx == nil {
				fctx = context.Background()
			}
			e.inFlush.Store(true)
		drain:
			for {
				select {
				case ev := <-e.q:
					batch = append(batch, ev)
					if len(batch) >= e.cfg.BatchSize {
						e.sendSpans(fctx, batch)
						batch = batch[:0]
					}
				default:
					break drain
				}
			}
			queueDepth.Store(0)
			if len(batch) > 0 {
				e.sendSpans(fctx, batch)
			}
			// Incremented before the final push so the collector's last
			// snapshot records the flush — /metrics is gone by the time
			// this counter would otherwise be visible anywhere.
			mFlushes.Inc()
			e.pushMetrics(fctx)
			return
		}
	}
}

// sendSpans converts and POSTs one batch of wide events. A batch that
// fails terminally or exhausts its retries is dropped with a counter —
// export is best-effort by design; the wide-event log and flight
// recorder remain the in-process source of truth.
func (e *Exporter) sendSpans(ctx context.Context, evs []*obsv.WideEvent) {
	now := e.cfg.now()
	var spans []span
	for _, ev := range evs {
		spans = append(spans, convertEvent(ev, now)...)
	}
	payload := tracesPayload{ResourceSpans: []resourceSpans{{
		Resource:   e.res,
		ScopeSpans: []scopeSpans{{Scope: scope{Name: scopeName, Version: version.Version}, Spans: spans}},
	}}}
	body, err := json.Marshal(payload)
	if err != nil {
		mExportFailTraces.Inc()
		mDroppedSend.Add(int64(len(evs)))
		return
	}
	if err := e.post(ctx, e.cfg.Endpoint+"/v1/traces", body); err != nil {
		mExportFailTraces.Inc()
		mDroppedSend.Add(int64(len(evs)))
		return
	}
	mExportsTraces.Inc()
	mSpansExported.Add(int64(len(spans)))
}

// pushMetrics snapshots the registry and POSTs it as OTLP metrics. A
// failed push is counted and forgotten: counters are cumulative, so the
// next interval's snapshot supersedes this one with no data loss.
func (e *Exporter) pushMetrics(ctx context.Context) {
	points := e.cfg.Registry.Snapshot()
	metrics := convertMetrics(points, e.start, e.cfg.now())
	if len(metrics) == 0 {
		return
	}
	payload := metricsPayload{ResourceMetrics: []resourceMetrics{{
		Resource:     e.res,
		ScopeMetrics: []scopeMetrics{{Scope: scope{Name: scopeName, Version: version.Version}, Metrics: metrics}},
	}}}
	body, err := json.Marshal(payload)
	if err != nil {
		mExportFailMetrics.Inc()
		return
	}
	if err := e.post(ctx, e.cfg.Endpoint+"/v1/metrics", body); err != nil {
		mExportFailMetrics.Inc()
		return
	}
	mExportsMetrics.Inc()
	mMetricPoints.Add(int64(len(points)))
}

// httpError is a non-2xx collector response; its status code decides
// retryability.
type httpError struct {
	code int
}

func (h *httpError) Error() string { return fmt.Sprintf("collector answered HTTP %d", h.code) }

// retryable classifies a POST failure: HTTP 429 and 5xx are transient
// (overload, restart), other HTTP codes are terminal (the payload or
// endpoint is wrong; retrying cannot help), and anything else — network
// errors, timeouts — is transient.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.code == http.StatusTooManyRequests || he.code >= 500
	}
	return true
}

// post delivers one payload with bounded retries and full-jitter backoff.
func (e *Exporter) post(ctx context.Context, url string, body []byte) error {
	var lastErr error
	for attempt := 0; attempt < e.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			if err := e.sleepBackoff(ctx, attempt); err != nil {
				return err
			}
		}
		err := e.postOnce(ctx, url, body)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return err
		}
		if !retryable(err) {
			return err
		}
	}
	return fmt.Errorf("after %d attempts: %w", e.cfg.MaxAttempts, lastErr)
}

// postOnce runs one POST attempt under the per-attempt timeout.
func (e *Exporter) postOnce(ctx context.Context, url string, body []byte) error {
	actx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return &httpError{code: resp.StatusCode}
	}
	return nil
}

// sleepBackoff waits the full-jitter delay before retry `attempt`,
// aborting early on ctx cancellation or exporter shutdown (the final
// flush must not sit in a backoff against a dead collector).
func (e *Exporter) sleepBackoff(ctx context.Context, attempt int) error {
	d := time.Duration(e.cfg.rnd() * float64(retry.Backoff(e.cfg.BackoffBase, e.cfg.BackoffMax, attempt)))
	if e.cfg.sleep != nil {
		return e.cfg.sleep(ctx, d)
	}
	if e.inFlush.Load() {
		// The final flush's own retries wait out their backoff, bounded
		// by the Close context. The loop sets inFlush (after stop closes)
		// on the goroutine that sleeps here, so it cannot flip mid-sleep.
		return retry.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-e.stop:
		// A pre-shutdown send caught mid-backoff: abort so the flush can
		// run; its batch is dropped with a counter.
		return errStopping
	case <-t.C:
		return nil
	}
}
