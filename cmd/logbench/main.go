// Command logbench regenerates the paper's evaluation artifacts: Figure 3
// (pattern distribution), Figure 7 (query latency, compression ratio,
// compression speed per log), Figure 8 (overall cost), Figure 9
// (ablations), the §2.2 granularity statistics, the §6.3 padding study and
// the ES cost crossover.
//
// Usage:
//
//	logbench -exp all                         # everything, default sizing
//	logbench -exp fig7 -class production      # one experiment
//	logbench -exp fig8 -lines 50000           # bigger blocks
//	logbench -exp fig3|fig9|stats|padding|crossover|table1
//	logbench -file app.log -query 'ERROR AND state:503'  # your own log
//	logbench -exp fig7 -stages                # + compression stage breakdown
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"loggrep"
	"loggrep/internal/benchfmt"
	"loggrep/internal/blobstore"
	"loggrep/internal/costmodel"
	"loggrep/internal/faultinject"
	"loggrep/internal/harness"
	"loggrep/internal/ingest"
	"loggrep/internal/liveops"
	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
	"loggrep/internal/server"
	"loggrep/internal/version"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig3|fig7|fig8|fig9|stats|padding|crossover|table1")
	class := flag.String("class", "production", "log class: production|public|both")
	lines := flag.Int("lines", 20000, "lines per generated log block")
	seed := flag.Int64("seed", 1, "workload seed")
	reps := flag.Int("reps", 3, "query latency repetitions (min taken)")
	queries := flag.Float64("queries", 100, "query count for the cost model")
	file := flag.String("file", "", "run the 5-system comparison on this raw log file instead of synthetic workloads")
	fileQuery := flag.String("query", "", "query command for -file mode")
	stages := flag.Bool("stages", false, "print the compression stage breakdown (parse/extract/assemble/pack) at the end")
	jsonOut := flag.String("json", "", "also write machine-readable results to this path (see internal/benchfmt; \"\" = off)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("logbench", version.String())
		return
	}

	cfg := harness.Config{LinesPerLog: *lines, Seed: *seed, QueryReps: *reps}
	params := costmodel.Default()
	params.Queries = *queries

	if *file != "" {
		if *fileQuery == "" {
			fmt.Fprintln(os.Stderr, "logbench: -file needs -query")
			os.Exit(2)
		}
		block, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "logbench:", err)
			os.Exit(1)
		}
		rows, err := harness.RunFile(*file, block, *fileQuery, harness.CoreSystems(), *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "logbench:", err)
			os.Exit(1)
		}
		harness.PrintFig7(os.Stdout, rows)
		harness.PrintFig8(os.Stdout, harness.Fig8(rows, params))
		if *stages {
			harness.PrintStageBreakdown(os.Stdout)
		}
		return
	}

	logs := pickLogs(*class)
	w := os.Stdout

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Fprintf(w, "\n===== %s =====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "logbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	var fig7Rows []harness.Fig7Row
	run("fig3", func() error {
		buckets, acc := harness.RunFig3(*seed, 13238)
		harness.PrintFig3(w, buckets, acc)
		return nil
	})
	run("fig7", func() error {
		var err error
		fig7Rows, err = harness.RunFig7(logs, harness.CoreSystems(), cfg)
		if err != nil {
			return err
		}
		harness.PrintFig7(w, fig7Rows)
		return nil
	})
	run("fig8", func() error {
		if fig7Rows == nil {
			var err error
			fig7Rows, err = harness.RunFig7(logs, harness.CoreSystems(), cfg)
			if err != nil {
				return err
			}
		}
		harness.PrintFig8(w, harness.Fig8(fig7Rows, params))
		return nil
	})
	run("crossover", func() error {
		if fig7Rows == nil {
			var err error
			fig7Rows, err = harness.RunFig7(logs, harness.CoreSystems(), cfg)
			if err != nil {
				return err
			}
		}
		harness.PrintCrossovers(w, harness.Crossovers(fig7Rows, params))
		return nil
	})
	run("fig9", func() error {
		rows, err := harness.RunFig9(logs, cfg)
		if err != nil {
			return err
		}
		harness.PrintFig9(w, rows)
		return nil
	})
	run("stats", func() error {
		rows, err := harness.RunStats(logs, cfg)
		if err != nil {
			return err
		}
		harness.PrintStats(w, rows)
		return nil
	})
	run("padding", func() error {
		harness.PrintPadding(w, harness.RunPadding(logs, cfg))
		return nil
	})
	run("table1", func() error {
		fmt.Fprintf(w, "\nQuery commands (Table 1 equivalents)\n")
		for _, lt := range logs {
			fmt.Fprintf(w, "%-14s%s\n", lt.Name, lt.Query)
		}
		return nil
	})
	if *stages {
		harness.PrintStageBreakdown(w)
	}
	if *jsonOut != "" {
		if fig7Rows == nil {
			fmt.Fprintln(os.Stderr, "logbench: -json needs the fig7 measurements (use -exp fig7 or -exp all)")
			os.Exit(2)
		}
		bf := benchfmt.New(*exp, benchfmt.Config{Lines: *lines, Seed: *seed, Reps: *reps, Class: *class})
		addFig7Metrics(bf, fig7Rows)
		if err := addIndexMetrics(bf, logs, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "logbench: index metrics:", err)
			os.Exit(1)
		}
		if err := addIngestMetrics(bf, logs, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "logbench: ingest metrics:", err)
			os.Exit(1)
		}
		if err := addBlobMetrics(bf, logs, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "logbench: blob metrics:", err)
			os.Exit(1)
		}
		if err := addLiveopsMetrics(bf, logs, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "logbench: liveops metrics:", err)
			os.Exit(1)
		}
		if err := benchfmt.Write(*jsonOut, bf); err != nil {
			fmt.Fprintln(os.Stderr, "logbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote %s (%d metrics)\n", *jsonOut, len(bf.Metrics))
	}
}

// addFig7Metrics folds the per-(log, system) rows into per-system
// aggregates. Compression ratios and match counts are deterministic for a
// fixed workload (tight or exact tolerances in bench_compare); wall-clock
// times are environment-bound and get loose or informational tolerances.
func addFig7Metrics(f *benchfmt.File, rows []harness.Fig7Row) {
	type agg struct {
		raw, comp             float64
		compressSec, querySec float64
		matches               float64
	}
	order := []string{}
	sums := map[string]*agg{}
	for _, r := range rows {
		a := sums[r.System]
		if a == nil {
			a = &agg{}
			sums[r.System] = a
			order = append(order, r.System)
		}
		a.raw += float64(r.RawBytes)
		a.comp += float64(r.CompBytes)
		a.compressSec += r.CompressSec
		a.querySec += r.QuerySec
		a.matches += float64(r.Matches)
	}
	for _, name := range order {
		a := sums[name]
		f.Add(name+"/compression_ratio", a.raw/a.comp, "x", false)
		f.Add(name+"/compress_mb_per_s", a.raw/(1<<20)/a.compressSec, "MB/s", false)
		f.Add(name+"/query_total_s", a.querySec, "s", true)
		f.AddExact(name+"/matches_total", a.matches, "matches")
	}
}

// addIndexMetrics measures the archive block-skipping index on the first
// workload log: storage overhead of the index sections, the fraction of
// blocks skipped before decompression on a selective (absent-keyword)
// query, and the wall-clock cost of the paper query with the index on
// versus forced full scan. The overhead and skip-rate numbers are
// deterministic for a fixed workload; the latencies are environment-bound
// and carry informational tolerances in CI.
func addIndexMetrics(f *benchfmt.File, logs []loggen.LogType, cfg harness.Config) error {
	lt := logs[0]
	stream := lt.Block(cfg.Seed, cfg.LinesPerLog)
	opts := loggrep.DefaultArchiveOptions()
	opts.Workers = 4
	if opts.BlockBytes > len(stream)/16 {
		opts.BlockBytes = len(stream) / 16 // force a multi-block archive
	}
	data, err := loggrep.CompressArchive(stream, opts)
	if err != nil {
		return err
	}
	indexed, err := loggrep.OpenArchive(data)
	if err != nil {
		return err
	}
	fullscan, err := loggrep.OpenArchive(data)
	if err != nil {
		return err
	}
	fullscan.SetIndexEnabled(false)

	st := indexed.IndexStats()
	f.Add("index/overhead_ratio", float64(st.TotalBytes())/float64(len(data)), "ratio", true)

	p0, b0 := indexed.IndexSkipped()
	if _, err := indexed.Query("zzz_absent_zzz", 4); err != nil {
		return err
	}
	p1, b1 := indexed.IndexSkipped()
	f.Add("index/skip_rate", float64((p1-p0)+(b1-b0))/float64(indexed.NumBlocks()), "ratio", false)

	minQuery := func(a *loggrep.Archive) (float64, error) {
		best := 0.0
		for r := 0; r < cfg.QueryReps || r == 0; r++ {
			start := time.Now()
			if _, err := a.Query(lt.Query, 4); err != nil {
				return 0, err
			}
			if d := time.Since(start).Seconds(); r == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	ti, err := minQuery(indexed)
	if err != nil {
		return err
	}
	tf, err := minQuery(fullscan)
	if err != nil {
		return err
	}
	f.Add("index/query_indexed_s", ti, "s", true)
	f.Add("index/query_fullscan_s", tf, "s", true)
	return nil
}

// addIngestMetrics measures the streaming write path end to end: real
// HTTP POSTs of plain-text batches into a loggrepd handler backed by a
// WAL-durable ingest manager (fsync before every acknowledgement, the
// production default), with the background sealer compressing rolled
// segments concurrently. lines_per_sec and mb_per_sec are wall-clock and
// environment-bound (informational tolerances in CI); lines_total is
// exact; min_rate_ok pins the ≥28K lines/sec acceptance floor as a
// deterministic pass/fail bit; seal latency quantiles come from the
// loggrep_ingest_seal_ns histogram the sealer feeds.
func addIngestMetrics(f *benchfmt.File, logs []loggen.LogType, cfg harness.Config) error {
	dir, err := os.MkdirTemp("", "logbench-ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, _, err := ingest.Open(ingest.Config{
		Dir:            dir,
		SealBytes:      1 << 20, // several seals over the run
		SealAge:        time.Hour,
		MaxTenantBytes: 1 << 30,
	})
	if err != nil {
		return err
	}
	defer m.Close()
	sv := server.New()
	sv.Ingest = m
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	lt := logs[0]
	batch := strings.Join(lt.Lines(cfg.Seed, 2000), "\n") + "\n"
	const batches = 50
	client := ts.Client()
	url := ts.URL + "/ingest?tenant=bench&stream=app"
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		resp, err := client.Post(url, "text/plain", strings.NewReader(batch))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("ingest batch %d: status %d", i, resp.StatusCode)
		}
	}
	wall := time.Since(t0).Seconds()
	totalLines := float64(batches * 2000)
	rate := totalLines / wall
	f.Add("ingest/lines_per_sec", rate, "lines/s", false)
	f.Add("ingest/mb_per_sec", float64(batches*len(batch))/(1<<20)/wall, "MB/s", false)
	f.AddExact("ingest/lines_total", totalLines, "lines")
	ok := 0.0
	if rate >= 28000 {
		ok = 1
	}
	f.AddExact("ingest/min_rate_ok", ok, "bool")

	// Drain the tail so every segment's seal is in the histogram.
	if err := m.TriggerSeal(context.Background(), "bench", "app"); err != nil {
		return err
	}
	h := obsv.Default.Histogram("loggrep_ingest_seal_ns", "ns", "")
	if h.Count() > 0 {
		f.Add("ingest/seal_p50_ms", float64(h.Quantile(0.5))/1e6, "ms", true)
		f.Add("ingest/seal_p99_ms", float64(h.Quantile(0.99))/1e6, "ms", true)
	}
	return nil
}

// addBlobMetrics measures the fault-tolerant blob layer over a real
// sealed archive. cold_read_p50_ms is the median latency of fetching the
// archive through the policy store when it is not resident (wall-clock,
// informational tolerance in CI). retry_overhead_ratio is the extra
// attempts per operation the retry policy spends against a backend
// failing 30% of calls — the chaos injector is seeded, so the ratio is
// deterministic for a fixed workload and gated at the default tolerance.
func addBlobMetrics(f *benchfmt.File, logs []loggen.LogType, cfg harness.Config) error {
	dir, err := os.MkdirTemp("", "logbench-blob-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lt := logs[0]
	data, err := loggrep.CompressArchive(lt.Block(cfg.Seed, cfg.LinesPerLog), loggrep.DefaultArchiveOptions())
	if err != nil {
		return err
	}
	const key = "bench/app/seg-00000000.lgrep"
	if err := os.MkdirAll(filepath.Join(dir, "bench", "app"), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(key)), data, 0o644); err != nil {
		return err
	}
	ctx := context.Background()

	healthy := blobstore.Wrap(blobstore.NewLocal(dir), blobstore.Policy{Name: "bench"})
	const reads = 64
	durs := make([]float64, 0, reads)
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		if _, err := healthy.Get(ctx, key); err != nil {
			return err
		}
		durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(durs)
	f.Add("blob/cold_read_p50_ms", durs[reads/2], "ms", true)

	chaos := faultinject.NewChaosBlob(blobstore.NewLocal(dir), cfg.Seed)
	chaos.SetErrRate(0.3)
	flaky := blobstore.Wrap(chaos, blobstore.Policy{
		MaxAttempts: 4, BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond,
		BreakerFailures: -1,
	})
	st := &blobstore.OpStats{}
	sctx := blobstore.WithStats(ctx, st)
	for i := 0; i < reads; i++ {
		// Exhausting all attempts against a 30%-failing backend is part of
		// the measured behavior, not a bench failure.
		if _, err := flaky.Get(sctx, key); err != nil && blobstore.Classify(err) != blobstore.ClassRetryable {
			return err
		}
	}
	ops := float64(st.Ops.Load())
	if ops == 0 {
		return fmt.Errorf("blob bench issued no operations")
	}
	f.Add("blob/retry_overhead_ratio", float64(st.Retries.Load())/ops, "ratio", true)
	return nil
}

// addLiveopsMetrics measures the live operations plane on the query hot
// path: the same uncached needle-miss query driven through the full
// handler stack with the plane off and on, interleaved reps,
// min-of-reps. The wall-clock numbers and their ratio are
// environment-bound (informational tolerances in CI); the two exact bits
// are genuinely deterministic — the in-flight registry drains to empty
// (every registration removed exactly once) and the per-tenant usage
// meter's request count reconciles with the requests actually sent.
func addLiveopsMetrics(f *benchfmt.File, logs []loggen.LogType, cfg harness.Config) error {
	lt := logs[0]
	capsule := loggrep.Compress(lt.Block(cfg.Seed, 3000), loggrep.DefaultOptions())

	newQueryServer := func(plane *liveops.Plane) (*server.Server, error) {
		sv := server.New()
		sv.Events = obsv.NewEventLog(io.Discard, 0, 0)
		sv.Liveops = plane
		if err := sv.Load("bench", capsule); err != nil {
			return nil, err
		}
		return sv, nil
	}
	svOff, err := newQueryServer(nil)
	if err != nil {
		return err
	}
	plane := liveops.New(liveops.Config{
		Registry: obsv.NewRegistry(),
		Objectives: []liveops.Objective{
			{Name: "availability", Target: 0.999, Window: 30 * 24 * time.Hour},
		},
	})
	svOn, err := newQueryServer(plane)
	if err != nil {
		return err
	}

	const iters = 200
	var seq int
	runRep := func(sv *server.Server) (float64, error) {
		h := sv.Handler()
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			seq++ // unique needle per request so the result cache never hits
			r := httptest.NewRequest("GET",
				fmt.Sprintf("/v1/query?source=bench&tenant=bench&q=needle%dmissing", seq), nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != 200 {
				return 0, fmt.Errorf("liveops bench query: status %d", w.Code)
			}
		}
		return time.Since(t0).Seconds() / iters, nil
	}
	reps := cfg.QueryReps
	if reps < 1 {
		reps = 1
	}
	minOff, minOn := 0.0, 0.0
	for r := 0; r < reps; r++ { // interleave so host drift hits both sides
		tOff, err := runRep(svOff)
		if err != nil {
			return err
		}
		tOn, err := runRep(svOn)
		if err != nil {
			return err
		}
		if r == 0 || tOff < minOff {
			minOff = tOff
		}
		if r == 0 || tOn < minOn {
			minOn = tOn
		}
	}
	f.Add("liveops/query_off_s", minOff, "s", true)
	f.Add("liveops/query_on_s", minOn, "s", true)
	f.Add("liveops/overhead_ratio", minOn/minOff, "ratio", true)

	drained := 0.0
	if plane.Inflight.Len() == 0 {
		drained = 1
	}
	f.AddExact("liveops/inflight_drained_ok", drained, "bool")
	metered := 0.0
	if plane.Usage.Total("bench").Requests == int64(reps*iters) {
		metered = 1
	}
	f.AddExact("liveops/usage_reconciled_ok", metered, "bool")
	return nil
}

func pickLogs(class string) []loggen.LogType {
	switch class {
	case "production":
		return loggen.Production()
	case "public":
		return loggen.Public()
	case "both":
		return loggen.All()
	}
	fmt.Fprintf(os.Stderr, "logbench: unknown class %q\n", class)
	os.Exit(2)
	return nil
}
