package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/flightrec"
	"loggrep/internal/ingest"
	"loggrep/internal/liveops"
	"loggrep/internal/obsv"
	"loggrep/internal/otlp"
	"loggrep/internal/version"
)

// MaxUploadBytes bounds PUT bodies.
const MaxUploadBytes = 1 << 30

// MaxIngestBytes bounds one POST /ingest batch body. Far above the
// useful batch size (a few MB amortizes the WAL fsync); far below
// anything that could blow up resident memory. A variable only so tests
// can shrink it.
var MaxIngestBytes = 64 << 20

// source is what the query, count and entry handlers need from a resolved
// source name: a loaded archive (a bare box is a one-block archive) or a
// live ingest stream, both as they are.
type source interface {
	Search(ctx context.Context, command string, o core.SearchOpts) (*core.Result, error)
	Entry(ctx context.Context, line int) (string, error)
}

// loaded is one loaded compressed dataset. An Archive synchronizes
// internally, so queries against one source proceed concurrently (cache hits
// and distinct blocks in parallel; same-block work serialized by its store).
type loaded struct {
	arch  *archive.Archive
	kind  string // "box" or "archive": what the uploaded bytes were
	bytes int
}

// Server is the HTTP handler set.
type Server struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ when set before
	// Handler is called. Off by default: the profiling endpoints expose
	// internals and should be opt-in (loggrepd -pprof).
	Pprof bool

	// MaxConcurrent caps the queries (and counts) executing at once; 0
	// means unlimited. Excess requests wait in a short queue and are shed
	// with 429 + Retry-After once it is full.
	MaxConcurrent int
	// QueueDepth sizes the wait queue in front of the semaphore. 0 picks
	// the default of 2×MaxConcurrent. Ignored when MaxConcurrent is 0.
	QueueDepth int
	// QueryTimeout is the default per-request deadline. A request may
	// override it with ?timeout_ms=; either way the deadline is clamped to
	// maxTimeout, which is also what 0 (no default) gets.
	QueryTimeout time.Duration
	// Budget caps the work of each query; zero fields mean unlimited.
	// Queries that exhaust it return partial results, never errors.
	Budget core.Budget
	// DisableIndex makes archive sources ignore their block-skipping
	// index sections and always full-scan (loggrepd -no-index). Set
	// before Load; it applies to every source loaded afterwards.
	DisableIndex bool
	// Events, when set, receives one wide observability event per query
	// and count request (loggrepd wires -slowlog here). Setting it forces
	// traced query execution so the events carry per-stage span timings.
	Events *obsv.EventLog
	// FlightRec, when set, buffers every request's wide event in the
	// flight recorder's ring and evaluates its dump triggers. Like
	// Events, setting it forces traced query execution. All recorder
	// methods are nil-safe, so handlers call through unconditionally.
	FlightRec *flightrec.Recorder
	// OTLP, when set, exports one OTLP span tree per finished request —
	// the request as a root SERVER span joining the caller's W3C trace,
	// per-stage query spans as children — through the dependency-free
	// export pipeline (loggrepd -otlp-endpoint). Like Events, setting it
	// forces traced query execution so exported spans carry stage
	// timings. All exporter methods are nil-safe and never block.
	OTLP *otlp.Exporter
	// Liveops, when set, is the live operations plane: every
	// query/count/ingest request registers in the in-flight registry
	// (GET /v1/inflight, DELETE /v1/inflight/{id}), its engine work is
	// attributed to its tenant in the usage meter (GET /v1/usage), and
	// its outcome feeds the SLO burn-rate engine (GET /v1/slo). Like
	// Events, setting it forces traced query execution so the meter sees
	// engine-work fields. All plane methods are nil-safe.
	Liveops *liveops.Plane
	// Ingest, when set, enables the write path: POST /ingest appends
	// batches into per-tenant/stream WAL buffers and POST /ingest/seal
	// forces a stream's raw tail into sealed archive segments. Ingest
	// streams are queryable through /v1/query et al. under the source
	// name "tenant/stream" (loggrepd -ingest).
	Ingest *ingest.Manager
	// Blobs serves LoadFromStore reads. Nil uses a fault-policy store
	// over the local filesystem with keys as plain paths (what loggrepd
	// -load wants); set it to point startup loads at another backend or
	// policy.
	Blobs blobstore.BlobStore

	mu      sync.RWMutex
	sources map[string]*loaded
	start   time.Time

	admitOnce sync.Once
	sem       chan struct{} // execution slots (nil = unlimited)
	queue     chan struct{} // wait-queue slots

	// lifecycle: draining stops admission (503); stopCtx cancels every
	// in-flight request context on hard stop.
	lifeMu     sync.Mutex
	draining   bool
	stopCtx    context.Context
	stopCancel context.CancelFunc
}

// New returns an empty server.
func New() *Server {
	stopCtx, stopCancel := context.WithCancel(context.Background())
	return &Server{
		sources: make(map[string]*loaded), start: time.Now(),
		stopCtx: stopCtx, stopCancel: stopCancel,
	}
}

// Load registers compressed data under a name: an archive, or a bare box
// as a one-block archive.
func (sv *Server) Load(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("server: empty source name")
	}
	a, err := archive.Open(data)
	if err != nil {
		return err
	}
	if sv.DisableIndex {
		a.SetIndexEnabled(false)
	}
	src := &loaded{arch: a, kind: "box", bytes: len(data)}
	if archive.IsArchive(data) {
		src.kind = "archive"
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.sources[name] = src
	return nil
}

// defaultBlobs lazily builds the fallback LoadFromStore backend: the
// local filesystem behind the default fault policy, keys as plain paths.
var defaultBlobs = sync.OnceValue(func() blobstore.BlobStore {
	return blobstore.Wrap(blobstore.NewLocal(""), blobstore.Policy{Name: "server"})
})

// LoadFromStore fetches key through the server's blob store (retries,
// breaker, the works) and registers it under name. Startup loads go
// through here so a flaky disk or remote backend gets the same fault
// handling as query-time reads.
func (sv *Server) LoadFromStore(ctx context.Context, name, key string) error {
	b := sv.Blobs
	if b == nil {
		b = defaultBlobs()
	}
	data, err := b.Get(ctx, key)
	if err != nil {
		return err
	}
	return sv.Load(name, data)
}

// Handler returns the routed http.Handler. Every endpoint is wrapped with
// per-endpoint request/latency metrics (see instrument).
func (sv *Server) Handler() http.Handler {
	sv.initAdmission()
	registerRuntimeGauges()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", sv.instrument("healthz", sv.handleHealthz))
	mux.HandleFunc("/metrics", sv.instrument("metrics", handleMetrics))
	mux.HandleFunc("/v1/sources", sv.instrument("sources", sv.handleSources))
	mux.HandleFunc("/v1/sources/", sv.instrument("source", sv.handleSource))
	mux.HandleFunc("/v1/query", sv.instrument("query", sv.lifecycle("query", false, sv.handleQuery)))
	mux.HandleFunc("/v1/count", sv.instrument("count", sv.lifecycle("count", false, sv.handleCount)))
	mux.HandleFunc("/v1/entry", sv.instrument("entry", sv.handleEntry))
	mux.HandleFunc("/v1/inflight", sv.instrument("inflight", sv.handleInflight))
	mux.HandleFunc("/v1/inflight/", sv.instrument("inflight_cancel", sv.handleInflightID))
	mux.HandleFunc("/v1/usage", sv.instrument("usage", sv.handleUsage))
	mux.HandleFunc("/v1/slo", sv.instrument("slo", sv.handleSLO))
	mux.HandleFunc("/ingest", sv.instrument("ingest", sv.lifecycle("ingest", true, sv.handleIngest)))
	mux.HandleFunc("/ingest/seal", sv.instrument("ingest_seal", sv.lifecycle("ingest_seal", true, sv.handleIngestSeal)))
	mux.HandleFunc("/debug/flightrec", sv.instrument("flightrec", sv.handleFlightRec))
	mux.HandleFunc("/debug/dump", sv.instrument("dump", sv.handleDump))
	if sv.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sv.mu.RLock()
	n := len(sv.sources)
	sv.mu.RUnlock()
	status, code := "ok", http.StatusOK
	if sv.isDraining() {
		// Load balancers watching /healthz should stop routing here the
		// moment a shutdown begins.
		status, code = "draining", http.StatusServiceUnavailable
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	payload := map[string]any{
		"status":           status,
		"sources":          n,
		"uptime_seconds":   int64(time.Since(sv.start).Seconds()),
		"version":          version.String(),
		"goroutines":       runtime.NumGoroutine(),
		"heap_inuse_bytes": ms.HeapInuse,
		"gc_pause_ns":      ms.PauseTotalNs,
	}
	if sv.Ingest != nil {
		payload["ingest_streams"] = len(sv.Ingest.Snapshot())
	}
	writeJSON(w, code, payload)
}

// handleFlightRec serves the flight recorder's live status; with the
// recorder disabled it reports {"enabled": false} rather than 404 so
// probes can tell "off" from "wrong URL".
func (sv *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, sv.FlightRec.Status())
}

// handleDump forces a diagnostic bundle (POST /debug/dump). Coalescing and
// cooldown suppression answer 429: the bundle the caller wants either
// already exists or is being written right now.
func (sv *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if sv.FlightRec == nil {
		httpError(w, http.StatusServiceUnavailable, "flight recorder disabled")
		return
	}
	path, err := sv.FlightRec.TriggerDump("manual")
	switch {
	case errors.Is(err, flightrec.ErrDumpInProgress), errors.Is(err, flightrec.ErrCooldown):
		httpError(w, http.StatusTooManyRequests, err.Error())
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, map[string]string{"bundle": path})
	}
}

// SourceInfo describes one loaded source: the /v1/sources payload and the
// live-state summary stamped into flight-recorder bundles.
type SourceInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Lines   int    `json:"lines"`
	Bytes   int    `json:"compressed_bytes"`
	Blocks  int    `json:"blocks,omitempty"`
	RawSize int    `json:"raw_bytes,omitempty"`
}

// SourcesSummary snapshots the loaded sources, name-sorted, plus every
// live ingest stream (kind "ingest": Blocks counts sealed segments, Bytes
// their compressed size, RawSize the unsealed raw tail). loggrepd wires
// it as the flight recorder's StateFn so every bundle records what data
// the process was serving.
func (sv *Server) SourcesSummary() []SourceInfo {
	sv.mu.RLock()
	out := make([]SourceInfo, 0, len(sv.sources))
	for name, s := range sv.sources {
		info := SourceInfo{Name: name, Kind: s.kind, Lines: s.arch.NumLines(), Bytes: s.bytes}
		if s.kind == "archive" {
			info.Blocks = s.arch.NumBlocks()
			info.RawSize = s.arch.RawBytes()
		}
		out = append(out, info)
	}
	sv.mu.RUnlock()
	if sv.Ingest != nil {
		for _, si := range sv.Ingest.Snapshot() {
			out = append(out, SourceInfo{
				Name:    si.Tenant + "/" + si.Stream,
				Kind:    "ingest",
				Lines:   si.Lines,
				Bytes:   int(si.SealedSize),
				Blocks:  si.SealedSegs,
				RawSize: int(si.RawBytes),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (sv *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, sv.SourcesSummary())
}

func (sv *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/sources/")
	if name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusBadRequest, "bad source name")
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxUploadBytes+1))
		if err != nil {
			httpError(w, http.StatusBadRequest, "read body: "+err.Error())
			return
		}
		if len(body) > MaxUploadBytes {
			httpError(w, http.StatusRequestEntityTooLarge, "body too large")
			return
		}
		if err := sv.Load(name, body); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"loaded": name})
	case http.MethodDelete:
		sv.mu.Lock()
		_, ok := sv.sources[name]
		delete(sv.sources, name)
		sv.mu.Unlock()
		if !ok {
			httpError(w, http.StatusNotFound, "no such source")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
	default:
		httpError(w, http.StatusMethodNotAllowed, "PUT or DELETE")
	}
}

// resolveSource maps a source name to its source: loaded archives first,
// then — when ingest is enabled — live ingest streams under
// "tenant/stream" (a bare "stream" means tenant "default"). nil when the
// name resolves to nothing.
func (sv *Server) resolveSource(name string) source {
	sv.mu.RLock()
	src := sv.sources[name]
	sv.mu.RUnlock()
	if src != nil {
		return src.arch
	}
	if sv.Ingest != nil {
		if st := sv.Ingest.Lookup(name); st != nil {
			return st
		}
	}
	return nil
}

// fail writes an error response and returns it in the (status, errMsg)
// shape handler bodies report to the lifecycle.
func fail(w http.ResponseWriter, code int, msg string) (int, string) {
	httpError(w, code, msg)
	return code, msg
}

// lookup resolves the source and command of a query request; on failure
// status/errMsg describe the error response to write, status is 0 on
// success.
func (sv *Server) lookup(r *http.Request) (src source, cmd string, status int, errMsg string) {
	q := r.URL.Query()
	name := q.Get("source")
	if src = sv.resolveSource(name); src == nil {
		return nil, "", http.StatusNotFound, "no such source " + strconv.Quote(name)
	}
	if cmd = q.Get("q"); cmd == "" {
		return nil, "", http.StatusBadRequest, "missing q parameter"
	}
	return src, cmd, 0, ""
}

type queryResponse struct {
	Matches   int             `json:"matches"`
	Lines     []int           `json:"lines"`
	Entries   []string        `json:"entries"`
	Damaged   []damageInfo    `json:"damaged,omitempty"`
	Partial   bool            `json:"partial,omitempty"`
	PartialTo string          `json:"partial_reason,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Trace     *obsv.TraceData `json:"trace,omitempty"`
}

// damageInfo is the JSON shape of one core.BlockError.
type damageInfo struct {
	Block     int    `json:"block"`
	FirstLine int    `json:"first_line"`
	NumLines  int    `json:"num_lines"`
	Error     string `json:"error"`
}

func damageJSON(damaged []core.BlockError) []damageInfo {
	if len(damaged) == 0 {
		return nil
	}
	out := make([]damageInfo, len(damaged))
	for i := range damaged {
		out[i] = damageInfo{
			Block:     damaged[i].Block,
			FirstLine: damaged[i].FirstLine,
			NumLines:  damaged[i].NumLines,
			Error:     damaged[i].Err.Error(),
		}
	}
	return out
}

// queryError maps a query failure to its HTTP response and returns the
// status code written. Cancellation by a vanished client gets no response
// at all — nobody is listening — and reports status 0.
func (sv *Server) queryError(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		mQueriesTimedOut.Inc()
		httpError(w, http.StatusGatewayTimeout, "query deadline exceeded")
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		mQueriesHTTPCancelled.Inc()
		if sv.stopCtx.Err() != nil {
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return http.StatusServiceUnavailable
		}
		return 0
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return http.StatusBadRequest
	}
}

// observed reports whether anything consumes this server's wide events
// (the event log, the flight recorder, the OTLP exporter or the live
// operations plane). When something does, queries run traced so the
// events carry per-stage span timings.
func (sv *Server) observed() bool {
	return sv.Events != nil || sv.FlightRec != nil || sv.OTLP != nil || sv.Liveops != nil
}

// request is the per-request state the lifecycle hands a handler body.
type request struct {
	// ctx is cancelled when the client disconnects, on HardStop, when an
	// operator cancels the request through the in-flight registry and —
	// on the read endpoints — at the request's deadline. It carries the
	// request's trace ids and blob accounting.
	ctx context.Context
	// ev is the request's wide event, never nil. Bodies fill in what
	// they learned; the lifecycle stamps the outcome and emits it.
	ev *obsv.WideEvent
	// meter caps and counts the request's engine work under the server's
	// budget; the in-flight registry reads it live.
	meter *core.BudgetState
	// t0 is when the request arrived, before admission.
	t0 time.Time
}

// lifecycle is the one path every evented request takes: start the wide
// event, gate the method (and, for the write endpoints, that ingest is
// enabled), pass admission control, derive the request context, attach
// blob accounting, build the work meter, register in the in-flight view,
// run the body, and —
// exactly once, on every return path including a panic — finish the
// event. A body does its work, writes its response and returns the
// status and error message the event should carry.
//
// write selects the POST /ingest* shape (POST only, 404 unless ingest is
// enabled, no deadline, source "tenant/stream") over the GET /v1/* shape
// (GET only, ?timeout_ms= or the server default as deadline).
func (sv *Server) lifecycle(endpoint string, write bool, body func(http.ResponseWriter, *http.Request, *request) (status int, errMsg string)) http.HandlerFunc {
	method := http.MethodGet
	if write {
		method = http.MethodPost
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ev := sv.startEvent(r, endpoint, write)
		var adm admitState
		// A body that panics never assigns these, so the event of a
		// recovered panic (instrument answers it) reads 500.
		status, errMsg := http.StatusInternalServerError, "handler panic"
		defer func() { sv.finishEvent(ev, t0, adm, status, errMsg) }()

		if r.Method != method {
			status, errMsg = fail(w, http.StatusMethodNotAllowed, method+" only")
			return
		}
		if write && sv.Ingest == nil {
			status, errMsg = fail(w, http.StatusNotFound, "ingest disabled (start loggrepd with -ingest)")
			return
		}
		release, adm, ok := sv.admit(w, r)
		if !ok {
			status, errMsg = adm.status, ""
			return
		}
		defer release()
		ctx, cancel, cancelCause, ok := sv.requestContext(r, !write)
		if !ok {
			status, errMsg = fail(w, http.StatusBadRequest, "bad timeout_ms parameter")
			return
		}
		defer cancel()
		// The request's trace id rides along so blob-layer latency
		// exemplars join the same trace.
		bst := &blobstore.OpStats{TraceID: ev.TraceID}
		defer stampBlobStats(ev, bst)
		rq := &request{ctx: blobstore.WithStats(ctx, bst), ev: ev, meter: core.NewBudgetState(sv.Budget), t0: t0}
		doneInflight := sv.beginLiveops(rq, cancelCause)
		defer doneInflight()
		status, errMsg = body(w, r, rq)
	}
}

// startEvent begins the wide event for one request.
func (sv *Server) startEvent(r *http.Request, endpoint string, write bool) *obsv.WideEvent {
	ids := obsv.IDsFrom(r.Context())
	q := r.URL.Query() // parse once; Query() re-parses per call
	source := q.Get("source")
	if write {
		tenant, stream := ingestTarget(q)
		source = tenant + "/" + stream
	}
	return &obsv.WideEvent{
		TraceID:              ids.TraceID,
		SpanID:               ids.SpanID,
		ParentSpanID:         ids.ParentSpanID,
		TraceState:           ids.TraceState,
		Time:                 time.Now().UTC().Format(time.RFC3339Nano),
		Version:              version.Version,
		Endpoint:             endpoint,
		Source:               source,
		Tenant:               requestTenant(q, r.Header),
		Command:              q.Get("q"),
		BudgetScanBytes:      sv.Budget.MaxScannedBytes,
		BudgetDecompressions: sv.Budget.MaxDecompressions,
	}
}

// finishEvent stamps the event's outcome — wall-clock duration (what the
// slowlog threshold applies to), admission state, final status — then emits
// it through the log's threshold-or-sampled policy, buffers it in the
// flight recorder (which may trigger a dump), hands it to the OTLP
// exporter (a non-blocking enqueue; a full queue drops with a counter)
// and feeds the usage meter and SLO engine. Every sink is nil-safe.
func (sv *Server) finishEvent(ev *obsv.WideEvent, t0 time.Time, adm admitState, status int, errMsg string) {
	ev.DurNS = time.Since(t0).Nanoseconds()
	ev.Queued, ev.Shed = adm.queued, adm.shed
	ev.Status = status
	ev.Error = errMsg
	if sv.Events != nil {
		sv.Events.Emit(ev)
	}
	sv.FlightRec.Record(ev)
	sv.OTLP.ExportEvent(ev)
	sv.Liveops.RecordEvent(ev)
}

// stampBlobStats copies the request's blob-layer accounting into its wide
// event.
func stampBlobStats(ev *obsv.WideEvent, bst *blobstore.OpStats) {
	ev.BlobOps = bst.Ops.Load()
	ev.BlobRetries = bst.Retries.Load()
	ev.BlobShed = bst.Shed.Load()
	ev.BlobFailed = bst.Failed.Load()
}

// search is the shared body of /v1/query and /v1/count: resolve the
// source, run the command under the server's work budget, and stamp the
// outcome into the wide event. It returns the trace it recorded, nil
// unless something reads one. A nil result means the error response has
// been written.
func (sv *Server) search(w http.ResponseWriter, r *http.Request, rq *request, count bool) (res *core.Result, tr *obsv.Trace, status int, errMsg string) {
	src, cmd, status, errMsg := sv.lookup(r)
	if status != 0 {
		httpError(w, status, errMsg)
		return nil, nil, status, errMsg
	}
	// The wide event wants span timings even when the client didn't ask
	// for a trace; the response only carries it when requested.
	if sv.observed() || r.URL.Query().Get("trace") == "1" {
		tr = obsv.NewTrace("query")
	}
	res, err := src.Search(rq.ctx, cmd, core.SearchOpts{
		Budget: rq.meter, Trace: tr, CountOnly: count,
	})
	status = http.StatusOK
	if err != nil {
		reason, ok := liveops.CancelledByOperator(rq.ctx)
		if !ok {
			return nil, nil, sv.queryError(w, err), err.Error()
		}
		// An operator killed this request via DELETE /v1/inflight.
		// Unlike a vanished client, the caller is still listening:
		// answer a clearly-marked empty partial — degraded but never
		// wrong.
		mQueriesHTTPCancelled.Inc()
		res, tr = &core.Result{Lines: []int{}, Entries: []string{}, Partial: true, PartialReason: reason}, nil
		errMsg = reason
	}
	if tr != nil {
		rq.ev.FillFromTrace(tr.Data())
	}
	rq.ev.Matches = int64(res.Matches)
	rq.ev.Partial = res.Partial
	rq.ev.PartialReason = res.PartialReason
	rq.ev.DamagedRegions = int64(len(res.Damaged))
	return res, tr, status, errMsg
}

// msSince is the elapsed_ms of a response body.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Microseconds()) / 1000 }

func (sv *Server) handleQuery(w http.ResponseWriter, r *http.Request, rq *request) (int, string) {
	start := time.Now()
	res, tr, status, errMsg := sv.search(w, r, rq, false)
	if res == nil {
		return status, errMsg
	}
	elapsed := msSince(start)
	q := r.URL.Query()
	if len(res.Damaged) > 0 && q.Get("strict") == "1" {
		return fail(w, http.StatusInternalServerError,
			fmt.Sprintf("source has %d damaged region(s); drop strict=1 for partial results", len(res.Damaged)))
	}
	resp := queryResponse{
		Matches:   res.Matches,
		Lines:     res.Lines,
		Entries:   res.Entries,
		Damaged:   damageJSON(res.Damaged),
		Partial:   res.Partial,
		PartialTo: res.PartialReason,
		ElapsedMS: elapsed,
	}
	if tr != nil && q.Get("trace") == "1" {
		tr.SetIDs(obsv.IDsFrom(rq.ctx))
		d := tr.Data()
		resp.Trace = &d
	}
	writeJSON(w, status, resp)
	return status, errMsg
}

func (sv *Server) handleCount(w http.ResponseWriter, r *http.Request, rq *request) (int, string) {
	start := time.Now()
	res, _, status, errMsg := sv.search(w, r, rq, true)
	if res == nil {
		return status, errMsg
	}
	resp := map[string]any{"matches": res.Matches, "elapsed_ms": msSince(start)}
	if len(res.Damaged) > 0 {
		resp["damaged_regions"] = len(res.Damaged)
	}
	if res.Partial {
		resp["partial"], resp["partial_reason"] = true, res.PartialReason
	}
	writeJSON(w, status, resp)
	return status, errMsg
}

// handleEntry serves GET /v1/entry. Its reads hear the client going away
// and HardStop, like a query's.
func (sv *Server) handleEntry(w http.ResponseWriter, r *http.Request) {
	src := sv.resolveSource(r.URL.Query().Get("source"))
	if src == nil {
		httpError(w, http.StatusNotFound, "no such source")
		return
	}
	line, err := strconv.Atoi(r.URL.Query().Get("line"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad line parameter")
		return
	}
	ctx, cancel, _, _ := sv.requestContext(r, false)
	defer cancel()
	entry, err := src.Entry(ctx, line)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"line": line, "entry": entry})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
