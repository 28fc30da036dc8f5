package flightrec

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/obsv"
)

// The recorder's fixed settings. loggrepd runs with these and no caller
// sets another; the package's own tests shrink the ring, window, cadence,
// cooldown and retention through Config's unexported fields.
const (
	// eventRingSize is how many wide events the ring keeps.
	eventRingSize = 256
	// metricsWindow is how much per-second history the metrics ring covers.
	metricsWindow = 10 * time.Minute
	// sampleInterval is the metrics sampling cadence.
	sampleInterval = time.Second
	// burstWindow is the window ErrorBurst and BudgetBurst count within.
	burstWindow = 30 * time.Second
	// cooldown is the minimum gap between bundles; triggers inside it are
	// counted but suppressed.
	cooldown = time.Minute
	// maxBundles caps the bundle files kept in Dir; the oldest are removed
	// after each dump.
	maxBundles = 8
)

// Config tunes a Recorder. The zero value is usable: NewRecorder fills
// every unset field with the defaults documented here.
type Config struct {
	// Dir is where bundles land (created on first dump). Default
	// "flightrec".
	Dir string

	// LatencyTrigger dumps when a request at least this slow completes.
	// 0 disables the trigger.
	LatencyTrigger time.Duration
	// ErrorBurst dumps when this many 5xx responses land within 30s.
	// 0 disables the trigger.
	ErrorBurst int
	// BudgetBurst dumps when this many budget-exhausted (partial)
	// queries land within 30s. 0 disables the trigger.
	BudgetBurst int

	// Registry is the counter source for metric deltas and the absolute
	// counter snapshot in bundles. Default obsv.Default.
	Registry *obsv.Registry
	// Static is stamped verbatim into every bundle: flags, config —
	// whatever identifies how this process was launched.
	Static map[string]any
	// StateFn, when set, is called at dump time for live process state
	// (loggrepd wires the open-source summary here). It must be safe
	// for concurrent use and should return quickly.
	StateFn func() any

	// Test seams; zero picks the constant of the same name.
	eventRingSize  int
	metricsWindow  time.Duration
	sampleInterval time.Duration
	cooldown       time.Duration
	maxBundles     int
}

func (c Config) withDefaults() Config {
	if c.Dir == "" {
		c.Dir = "flightrec"
	}
	if c.eventRingSize <= 0 {
		c.eventRingSize = eventRingSize
	}
	if c.metricsWindow <= 0 {
		c.metricsWindow = metricsWindow
	}
	if c.sampleInterval <= 0 {
		c.sampleInterval = sampleInterval
	}
	if c.cooldown == 0 {
		c.cooldown = cooldown
	}
	if c.maxBundles <= 0 {
		c.maxBundles = maxBundles
	}
	if c.Registry == nil {
		c.Registry = obsv.Default
	}
	return c
}

// Dump suppression errors. Callers that must know whether a bundle was
// written (the /debug/dump handler, DumpOn) branch on these; the async
// trigger path just counts them.
var (
	// ErrDumpInProgress reports that another dump was already writing;
	// the trigger coalesced into it.
	ErrDumpInProgress = errors.New("flightrec: dump already in progress")
	// ErrCooldown reports that the last bundle is too recent.
	ErrCooldown = errors.New("flightrec: in post-dump cooldown")
)

// PanicInfo is one recovered handler panic, kept for the next bundle.
type PanicInfo struct {
	Time     string `json:"time"`
	Endpoint string `json:"endpoint,omitempty"`
	Value    string `json:"value"`
	Stack    string `json:"stack"`
}

const (
	maxPanicsKept = 4
	maxPanicStack = 16 << 10
)

// Recorder is the flight recorder: bounded event/metrics rings, trigger
// evaluation, and single-flight bundle dumps. All methods are nil-safe
// so callers can wire it unconditionally.
type Recorder struct {
	cfg     Config
	events  *EventRing
	metrics *MetricsRing

	sampleMu     sync.Mutex
	lastCounters map[string]int64

	burstMu  sync.Mutex
	errTimes []time.Time
	budTimes []time.Time

	dumpMu      sync.Mutex
	dumping     bool
	lastDump    time.Time
	seq         int
	written     int64
	lastTrigger string
	lastBundle  string
	lastErr     string
	suppressed  atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	panicMu sync.Mutex
	panics  []PanicInfo
}

// NewRecorder builds a recorder from cfg (zero fields defaulted) and
// takes the first metrics sample so counter deltas have a baseline. Call
// Start to begin per-second sampling.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:     cfg,
		events:  NewEventRing(cfg.eventRingSize),
		metrics: NewMetricsRing(int(cfg.metricsWindow / cfg.sampleInterval)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.lastCounters = cfg.Registry.CounterValues()
	return r
}

// Start launches the per-second sampler goroutine. Idempotent.
func (r *Recorder) Start() {
	if r == nil {
		return
	}
	r.startOnce.Do(func() { go r.loop() })
}

// Stop halts the sampler and waits for it to exit. Safe to call more
// than once, and before Start (which then becomes a no-op).
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	// Consume startOnce so a never-started (or not-yet-started) sampler
	// doesn't leave done pending — and a Start after Stop stays inert.
	r.startOnce.Do(func() { close(r.done) })
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Recorder) loop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.sampleInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.Sample()
		case <-r.stop:
			return
		}
	}
}

// Record buffers one finished request's wide event and evaluates the
// request-driven triggers. This is the hot path: a bounded copy into the
// ring plus a few comparisons; any triggered dump runs asynchronously.
func (r *Recorder) Record(ev *obsv.WideEvent) {
	if r == nil || ev == nil {
		return
	}
	r.events.Add(ev)
	if r.cfg.LatencyTrigger > 0 && ev.DurNS >= r.cfg.LatencyTrigger.Nanoseconds() {
		r.triggerAsync("latency")
		return
	}
	if r.cfg.ErrorBurst > 0 && ev.Status >= 500 && r.burst(&r.errTimes, r.cfg.ErrorBurst) {
		r.triggerAsync("error-spike")
		return
	}
	if r.cfg.BudgetBurst > 0 && ev.Partial && r.burst(&r.budTimes, r.cfg.BudgetBurst) {
		r.triggerAsync("budget-burst")
	}
}

// burst appends now to times (bounded at n entries) and reports whether
// the last n arrivals all landed within burstWindow.
func (r *Recorder) burst(times *[]time.Time, n int) bool {
	now := time.Now()
	r.burstMu.Lock()
	defer r.burstMu.Unlock()
	*times = append(*times, now)
	if len(*times) > n {
		*times = (*times)[len(*times)-n:]
	}
	return len(*times) == n && now.Sub((*times)[0]) <= burstWindow
}

// RecordPanic stores a recovered handler panic (bounded: the last 4,
// stacks truncated to 16KB) and triggers a dump.
func (r *Recorder) RecordPanic(endpoint string, value any, stack []byte) {
	if r == nil {
		return
	}
	if len(stack) > maxPanicStack {
		stack = stack[:maxPanicStack]
	}
	p := PanicInfo{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		Endpoint: endpoint,
		Value:    fmt.Sprint(value),
		Stack:    string(stack),
	}
	r.panicMu.Lock()
	r.panics = append(r.panics, p)
	if len(r.panics) > maxPanicsKept {
		r.panics = r.panics[len(r.panics)-maxPanicsKept:]
	}
	r.panicMu.Unlock()
	r.triggerAsync("panic")
}

func (r *Recorder) panicsSnapshot() []PanicInfo {
	r.panicMu.Lock()
	defer r.panicMu.Unlock()
	return append([]PanicInfo(nil), r.panics...)
}

// RecordSLOBurn is the SLO trigger class: a fast-burn edge detected by
// the live-ops burn-rate engine captures a diagnostic bundle whose
// manifest names the breached objective ("slo-fast-burn:<objective>"),
// so the bundle an operator opens after a page already says which
// promise was being broken. Asynchronous and cooldown-suppressed like
// every request-driven trigger; nil-safe.
func (r *Recorder) RecordSLOBurn(objective string) {
	if r == nil {
		return
	}
	r.triggerAsync("slo-fast-burn:" + objective)
}

// triggerAsync fires a dump off the request path. Suppression (cooldown
// or an in-flight dump) is detected synchronously so the hot path never
// spawns goroutines while a trigger is flapping.
func (r *Recorder) triggerAsync(reason string) {
	r.dumpMu.Lock()
	blocked := r.dumping || (!r.lastDump.IsZero() && time.Since(r.lastDump) < r.cfg.cooldown)
	r.dumpMu.Unlock()
	if blocked {
		r.suppressed.Add(1)
		return
	}
	go func() { _, _ = r.TriggerDump(reason) }()
}

// TriggerDump writes one diagnostic bundle and returns its path. Dumps
// are single-flight: a trigger while another dump is writing returns
// ErrDumpInProgress (the in-flight bundle covers it), and a trigger
// within the cooldown of the previous bundle returns ErrCooldown. After a
// successful dump, bundles beyond the newest 8 are pruned oldest-first.
func (r *Recorder) TriggerDump(reason string) (string, error) {
	if r == nil {
		return "", errors.New("flightrec: recorder disabled")
	}
	r.dumpMu.Lock()
	if r.dumping {
		r.dumpMu.Unlock()
		r.suppressed.Add(1)
		return "", ErrDumpInProgress
	}
	if !r.lastDump.IsZero() && time.Since(r.lastDump) < r.cfg.cooldown {
		r.dumpMu.Unlock()
		r.suppressed.Add(1)
		return "", ErrCooldown
	}
	r.dumping = true
	r.seq++
	seq := r.seq
	r.dumpMu.Unlock()

	path, err := r.writeBundle(reason, seq)

	r.dumpMu.Lock()
	r.dumping = false
	r.lastDump = time.Now()
	r.lastTrigger = reason
	if err != nil {
		r.lastErr = err.Error()
	} else {
		r.lastBundle = path
		r.lastErr = ""
		r.written++
	}
	r.dumpMu.Unlock()
	if err == nil {
		r.retain()
	}
	return path, err
}

// Sample takes one metrics observation: runtime stats plus counter
// deltas since the previous sample. Called by the Start loop every
// second; tests call it directly.
func (r *Recorder) Sample() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := MetricSample{
		UnixMilli:  time.Now().UnixMilli(),
		Goroutines: runtime.NumGoroutine(),
		HeapInuse:  ms.HeapInuse,
		GCPauseNS:  ms.PauseTotalNs,
		NumGC:      ms.NumGC,
	}
	cur := r.cfg.Registry.CounterValues()
	r.sampleMu.Lock()
	var deltas map[string]int64
	for k, v := range cur {
		if d := v - r.lastCounters[k]; d != 0 {
			if deltas == nil {
				deltas = make(map[string]int64)
			}
			deltas[k] = d
		}
	}
	r.lastCounters = cur
	r.sampleMu.Unlock()
	s.CounterDeltas = deltas
	r.metrics.Add(s)
}

// DumpOn writes one bundle per signal received on ch — loggrepd wires
// SIGQUIT here. Dumps suppressed by cooldown or coalescing are reported
// on stderr, not retried: the bundle they would have produced already
// exists or is being written.
func (r *Recorder) DumpOn(ch <-chan os.Signal, reason string) {
	for range ch {
		path, err := r.TriggerDump(reason)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flightrec: %s dump suppressed: %v\n", reason, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "flightrec: wrote %s\n", path)
	}
}

// Status is the /debug/flightrec payload.
type Status struct {
	Enabled         bool   `json:"enabled"`
	Dir             string `json:"dir,omitempty"`
	EventsBuffered  int    `json:"events_buffered"`
	EventCapacity   int    `json:"event_capacity"`
	EventsRecorded  int64  `json:"events_recorded_total"`
	MetricSamples   int    `json:"metric_samples"`
	BundlesWritten  int64  `json:"bundles_written_total"`
	DumpsSuppressed int64  `json:"dumps_suppressed_total"`
	LastTrigger     string `json:"last_trigger,omitempty"`
	LastBundle      string `json:"last_bundle,omitempty"`
	LastError       string `json:"last_error,omitempty"`
}

// Status reports the recorder's live state; a nil recorder reports
// {"enabled": false}.
func (r *Recorder) Status() Status {
	if r == nil {
		return Status{}
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	return Status{
		Enabled:         true,
		Dir:             r.cfg.Dir,
		EventsBuffered:  r.events.Len(),
		EventCapacity:   r.events.Cap(),
		EventsRecorded:  r.events.Total(),
		MetricSamples:   r.metrics.Len(),
		BundlesWritten:  r.written,
		DumpsSuppressed: r.suppressed.Load(),
		LastTrigger:     r.lastTrigger,
		LastBundle:      r.lastBundle,
		LastError:       r.lastErr,
	}
}
