// Command loggrepd serves LogGrep over HTTP: grep-like queries over
// loaded archives, and — with -ingest — a durable write path that
// accepts streaming log batches and seals them into compressed, indexed
// archive segments in the background.
//
// Usage:
//
//	loggrepd -addr :8080 -load prod=prod.lgrep -load web=web.log.lgrep
//	loggrepd -addr :8080 -ingest -ingest-dir /var/lib/loggrep/ingest
//
// Then:
//
//	curl 'localhost:8080/v1/query?source=prod&q=ERROR%20AND%20state:503'
//	curl 'localhost:8080/v1/count?source=prod&q=ERROR'
//	curl -X PUT --data-binary @more.lgrep localhost:8080/v1/sources/more
//	curl 'localhost:8080/metrics'              # Prometheus text
//	curl 'localhost:8080/metrics?format=json'  # JSON
//
// Ingest (INGEST.md is the full handbook): POST /ingest appends a batch
// of newline-separated lines (or NDJSON with Content-Type:
// application/x-ndjson) to a per-tenant/stream WAL buffer, fsynced
// before the 200 — acknowledged lines survive a crash and are replayed
// on restart. A background sealer rolls buffers into compressed archive
// segments under -ingest-dir once -ingest-seal-mb or -ingest-seal-age
// trips (POST /ingest/seal forces it). Streams are immediately queryable
// as source "tenant/stream" — sealed segments and the raw tail answer as
// one consistent view. A tenant whose raw tail exceeds
// -ingest-max-tenant-mb gets 429 + Retry-After until sealing drains it.
//
// Overload and timeout controls: -max-concurrent bounds simultaneous
// queries (excess requests queue briefly, then get 429 + Retry-After),
// -query-timeout sets the default per-query deadline (clients may override
// per request with ?timeout_ms=; every deadline is clamped to 5 minutes),
// and -max-scan-mb / -max-decompressions cap per-query work, degrading
// runaway queries into partial results. SIGINT/SIGTERM trigger a graceful
// shutdown: draining stops admission (503, /healthz flips to draining),
// in-flight queries get half of -shutdown-grace to finish, then are
// cancelled; a drained server exits 0.
//
// Archive sources consult their embedded block-skipping indexes (token
// postings + per-block bloom filters) before decompressing anything;
// -no-index turns that off so every query full-scans. Results are
// identical either way — the index only prunes, never filters matches.
//
// Forensics: -slowlog <dur> writes one wide JSON event per slow request to
// stderr (0 logs every request); -slowlog-sample N additionally emits every
// Nth request so a healthy baseline stays visible; -slowlog-file redirects
// the events to a size-bounded rotating file (64 MB per generation, one
// .1 generation kept). Each response carries an X-Trace-Id header that
// joins the event to the /metrics latency exemplars.
//
// The flight recorder (-flightrec, on by default) keeps the last 256
// wide events and ~10 minutes of per-second runtime
// metrics in bounded in-memory rings. A trigger — a request slower than
// -flightrec-latency, a burst of -flightrec-errors 5xx responses or
// -flightrec-budget budget-exhausted queries within 30s, a recovered
// handler panic, SIGQUIT, or POST /debug/dump — writes one self-contained
// diagnostic bundle to -flightrec-dir (at most one per minute, oldest
// pruned beyond 8).
// Render bundles with `loggrep diag`; live status at GET /debug/flightrec.
//
// The live operations plane is always on: GET /v1/inflight lists every
// executing request with its live progress (blocks scanned/skipped,
// bytes, budget fraction, stage), DELETE /v1/inflight/{id} cancels one
// cooperatively (the client gets an empty partial marked "cancelled",
// never a wrong result), GET /v1/usage reports per-tenant consumption
// over twelve rolling 5-minute windows, and GET /v1/slo reports
// compliance and multi-window burn rates for each -slo objective. A
// fast burn (both 5m and 1h burn >= 14.4x) triggers a flight-recorder
// bundle naming the objective. Watch it live with `loggrep top`.
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ for CPU
// and heap profiling; leave it off in untrusted networks. OPERATIONS.md
// documents every endpoint, flag, and exported metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/flightrec"
	"loggrep/internal/ingest"
	"loggrep/internal/liveops"
	"loggrep/internal/obsv"
	"loggrep/internal/otlp"
	"loggrep/internal/server"
	"loggrep/internal/version"
)

// slowlogFileBytes is the size at which -slowlog-file rotates.
const slowlogFileBytes = 64 << 20

type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	maxConcurrent := flag.Int("max-concurrent", 0, "max queries executing at once (0 = unlimited)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "default per-query deadline (0 = none)")
	shutdownGrace := flag.Duration("shutdown-grace", 20*time.Second, "grace period for draining in-flight queries on SIGTERM")
	maxScanMB := flag.Int64("max-scan-mb", 0, "per-query cap on scanned megabytes, exceeding returns partial results (0 = unlimited)")
	maxDecomp := flag.Int64("max-decompressions", 0, "per-query cap on capsule decompressions, exceeding returns partial results (0 = unlimited)")
	noIndex := flag.Bool("no-index", false, "make archive sources ignore block-skipping index sections, always full-scan")
	ingestOn := flag.Bool("ingest", false, "enable the write path: POST /ingest with WAL-durable buffering and background sealing (see INGEST.md)")
	ingestDir := flag.String("ingest-dir", "ingest", "root directory for ingest WAL segments and sealed archives")
	ingestSealMB := flag.Int64("ingest-seal-mb", 4, "seal a stream's raw segment once it reaches this many megabytes")
	ingestSealAge := flag.Duration("ingest-seal-age", 30*time.Second, "seal a non-empty raw segment this long after its first line, even if under -ingest-seal-mb")
	ingestMaxTenantMB := flag.Int64("ingest-max-tenant-mb", 64, "per-tenant bound on unsealed raw-tail megabytes; appends past it get 429 + Retry-After")
	ingestMaxSealedMB := flag.Int64("ingest-max-sealed-mb", 256, "bound on sealed-archive megabytes kept resident in memory; colder segments reload from disk on query")
	blobAttempts := flag.Int("blob-attempts", 3, "total attempts per blob read (retries on transient storage errors; 1 = no retries)")
	slowlog := flag.Duration("slowlog", -1, "emit a wide JSON event to stderr for requests at least this slow (0 = every request, negative = off)")
	slowlogSample := flag.Int("slowlog-sample", 0, "additionally emit every Nth request regardless of duration (0 = off)")
	slowlogFile := flag.String("slowlog-file", "", "write slowlog events to this file instead of stderr, rotated at 64 MB with one .1 generation kept (implies -slowlog 0 unless set)")
	flightrecOn := flag.Bool("flightrec", true, "keep the always-on flight recorder (event/metrics rings + triggered diagnostic bundles)")
	flightrecDir := flag.String("flightrec-dir", "flightrec", "directory for diagnostic bundles")
	flightrecLatency := flag.Duration("flightrec-latency", 0, "dump a bundle when a request at least this slow completes (0 = off)")
	flightrecErrors := flag.Int("flightrec-errors", 0, "dump a bundle on this many 5xx responses within 30s (0 = off)")
	flightrecBudget := flag.Int("flightrec-budget", 0, "dump a bundle on this many budget-exhausted partial queries within 30s (0 = off)")
	otlpEndpoint := flag.String("otlp-endpoint", "", "base URL of an OTLP/HTTP collector (e.g. http://localhost:4318); spans for every request and seal, plus a metrics snapshot each -otlp-interval, are pushed as JSON (empty = export off)")
	otlpInterval := flag.Duration("otlp-interval", 10*time.Second, "metrics push cadence and maximum span batch age for -otlp-endpoint")
	otlpQueue := flag.Int("otlp-queue", 1024, "export queue capacity; a full queue drops events (counted in loggrep_otlp_dropped_total) rather than blocking requests")
	showVersion := flag.Bool("version", false, "print version and exit")
	var loads loadFlags
	flag.Var(&loads, "load", "name=path of a .lgrep file to preload (repeatable)")
	var sloSpecs loadFlags
	flag.Var(&sloSpecs, "slo", "service-level objective as name:target%:window[:latency], e.g. availability:99.9%:30d or read-latency:99%:28d:500ms (repeatable; burn rates at /v1/slo)")
	flag.Parse()
	if *showVersion {
		fmt.Println("loggrepd", version.String())
		return
	}

	sv := server.New()
	sv.Pprof = *pprofOn
	sv.MaxConcurrent = *maxConcurrent
	sv.QueryTimeout = *queryTimeout
	sv.Budget = core.Budget{MaxScannedBytes: *maxScanMB << 20, MaxDecompressions: *maxDecomp}
	sv.DisableIndex = *noIndex
	sv.Blobs = blobstore.Wrap(blobstore.NewLocal(""), blobstore.Policy{MaxAttempts: *blobAttempts, Name: "server"})
	// The live operations plane is always on: every request registers in
	// the in-flight view, meters its tenant, and feeds the SLO engine.
	var objectives []liveops.Objective
	for _, spec := range sloSpecs {
		o, err := liveops.ParseObjective(spec)
		if err != nil {
			fatal(fmt.Errorf("bad -slo %q: %w", spec, err))
		}
		objectives = append(objectives, o)
	}
	plane := liveops.New(liveops.Config{Objectives: objectives})
	sv.Liveops = plane
	if len(objectives) > 0 {
		names := make([]string, len(objectives))
		for i, o := range objectives {
			names[i] = o.Name
		}
		fmt.Printf("slo engine enabled: %s\n", strings.Join(names, ", "))
	}
	var exp *otlp.Exporter
	if *otlpEndpoint != "" {
		// Every explicitly-set flag rides each export as a resource
		// attribute, so a collector can tell apart processes by their
		// launch configuration the same way flight-recorder bundles do.
		res := map[string]string{}
		flag.Visit(func(f *flag.Flag) { res["loggrep.flag."+f.Name] = f.Value.String() })
		exp = otlp.New(otlp.Config{
			Endpoint:  *otlpEndpoint,
			Interval:  *otlpInterval,
			QueueSize: *otlpQueue,
			Resource:  res,
		})
		exp.Start()
		sv.OTLP = exp
		fmt.Printf("otlp export enabled: endpoint=%s interval=%s queue=%d\n",
			*otlpEndpoint, *otlpInterval, *otlpQueue)
	}
	if *ingestOn {
		m, stats, err := ingest.Open(ingest.Config{
			Dir:            *ingestDir,
			SealBytes:      *ingestSealMB << 20,
			SealAge:        *ingestSealAge,
			MaxTenantBytes: *ingestMaxTenantMB << 20,
			MaxSealedBytes: *ingestMaxSealedMB << 20,
			Blobs:          blobstore.Wrap(blobstore.NewLocal(*ingestDir), blobstore.Policy{MaxAttempts: *blobAttempts, Name: "ingest"}),
			SealEvents:     sealEvents(exp),
		})
		if err != nil {
			fatal(err)
		}
		defer m.Close()
		sv.Ingest = m
		fmt.Printf("ingest enabled: dir=%s replayed %d stream(s), %d sealed segment(s), %d WAL segment(s) (%d lines)\n",
			*ingestDir, stats.Streams, stats.SealedSegs, stats.RawSegs, stats.RawLines)
		if stats.Quarantined > 0 || stats.WALFallbacks > 0 {
			fmt.Printf("ingest degraded: %d sealed segment(s) quarantined (unreadable, queries report the gap), %d rebuilt from surviving WALs\n",
				stats.Quarantined, stats.WALFallbacks)
		}
	}
	if *slowlog >= 0 || *slowlogSample > 0 || *slowlogFile != "" {
		threshold := *slowlog
		if threshold < 0 {
			if *slowlogSample > 0 {
				// -slowlog-sample alone: sample only, never threshold-emit.
				threshold = time.Duration(1<<63 - 1)
			} else {
				// -slowlog-file alone: the operator asked for a log file,
				// so log every request into it.
				threshold = 0
			}
		}
		var sink io.Writer = os.Stderr
		if *slowlogFile != "" {
			rf, err := flightrec.OpenRotatingFile(*slowlogFile, slowlogFileBytes)
			if err != nil {
				fatal(err)
			}
			defer rf.Close()
			sink = rf
		}
		sv.Events = obsv.NewEventLog(sink, threshold, *slowlogSample)
	}
	if *flightrecOn {
		// Record how this process was launched: every explicitly-set flag
		// lands verbatim in each bundle.
		flags := map[string]any{}
		flag.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
		rec := flightrec.NewRecorder(flightrec.Config{
			Dir:            *flightrecDir,
			LatencyTrigger: *flightrecLatency,
			ErrorBurst:     *flightrecErrors,
			BudgetBurst:    *flightrecBudget,
			Static:         map[string]any{"addr": *addr, "flags": flags},
			StateFn:        func() any { return sv.SourcesSummary() },
		})
		rec.Start()
		defer rec.Stop()
		sv.FlightRec = rec
		// A fast SLO burn is exactly the moment a diagnostic bundle is
		// worth its cost: snapshot the rings while the burn is happening.
		plane.SLO.OnFastBurn(rec.RecordSLOBurn)
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go rec.DumpOn(quit, "sigquit")
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -load %q, want name=path", spec))
		}
		if err := sv.LoadFromStore(context.Background(), name, path); err != nil {
			fatal(fmt.Errorf("load %s: %w", name, err))
		}
		fmt.Printf("loaded %s from %s\n", name, path)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("loggrepd listening on %s\n", ln.Addr())
	if err := sv.ServeGraceful(ln, sig, *shutdownGrace); err != nil {
		fatal(err)
	}
	if exp != nil {
		// The server has drained, so every request's wide event is already
		// enqueued; flush them and a final metrics snapshot before exit,
		// bounded so a dead collector cannot wedge shutdown.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := exp.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "loggrepd: otlp flush:", err)
		}
		cancel()
	}
	fmt.Println("loggrepd: drained, exiting")
}

// sealEvents adapts the exporter into the ingest SealEvents sink, nil
// when export is off so the sealer skips building events entirely.
func sealEvents(exp *otlp.Exporter) func(*obsv.WideEvent) {
	if exp == nil {
		return nil
	}
	return exp.ExportEvent
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loggrepd:", err)
	os.Exit(1)
}
