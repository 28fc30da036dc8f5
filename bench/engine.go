package main

import (
	"bytes"
	"fmt"
	"slices"
	"syscall"
	"time"

	"loggrep"
)

// Sizing of the engine workloads. The corpus is half of what ISSUE 11 asked
// for (100 000 lines per type): the benchmark contract allows about 35 s per
// run including three set-ups, and one archive build of the full corpus
// alone takes 8 s here. Block size is the issue's: 2 MiB is about 24 000
// lines, inside ROADMAP's ">= 20k-line" regime, and 28 MB makes 14 blocks,
// so block skipping is visible.
const (
	linesPerType = 50_000
	blockBytes   = 2 << 20
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// sealSetupReps is setupReps for seal-archive, whose set-up is only the
	// corpus generation: a third of a second of allocation, which swings by
	// a fifth from one to the next, so it takes more of them to hold still.
	sealSetupReps = 9
	// minSamples lets p95 be reported: 200 samples leave 10 beyond it.
	minSamples = 200
	// warmQueries is the size of query-refine's warm-up token set W.
	warmQueries = 400
	// maxRefineQueries bounds the timed query list of query-refine; the
	// timed loop ends at the deadline or when the list is used up.
	maxRefineQueries = 30_000
)

// engineConfig sizes one engine workload run; tests shrink it.
type engineConfig struct {
	seed         int64
	seconds      float64
	linesPerType int
	blockBytes   int
	setupReps    int
	minSamples   int
	warmQueries  int
	maxRefine    int
}

func defaultEngineConfig(seed int64, seconds float64) engineConfig {
	return engineConfig{
		seed: seed, seconds: seconds,
		linesPerType: linesPerType, blockBytes: blockBytes, setupReps: setupReps,
		minSamples: minSamples, warmQueries: warmQueries, maxRefine: maxRefineQueries,
	}
}

// archiveOptions are loggrep's defaults except for the block size and one
// worker: engine numbers are per-core costs, like the paper's, and with one
// worker layer times can sum to wall-clock.
func archiveOptions(blockBytes int) loggrep.ArchiveOptions {
	o := loggrep.DefaultArchiveOptions()
	o.BlockBytes = blockBytes
	o.Workers = 1
	return o
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// repeatSetup runs setup reps times and returns the last environment with
// the median duration: one set-up is a single noisy sample, and a later
// change that moves work into set-up must show against a steady number.
func repeatSetup[T any](reps int, setup func() (T, error)) (env T, medianS float64, err error) {
	var took []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return env, median(took), nil
}

// failures counts checked operations and keeps the first few reasons.
type failures struct {
	attempted, failed int
	reasons           []string
}

func (f *failures) check(what string, err error) {
	f.attempted++
	if err == nil {
		return
	}
	f.failed++
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, what+": "+err.Error())
	}
}

// ---- seal-archive ----

type sealEnv struct {
	c    *corpus
	opts loggrep.ArchiveOptions
}

// sealPass is one pass of seal-archive: compress the whole corpus into an
// archive, then open that archive and reconstruct every line.
func sealPass(env *sealEnv, tr *tracer) (arc []byte, lines []string, compressS, reconstructS float64, err error) {
	done := tr.begin("bench.pass")
	defer done()
	t0 := time.Now()
	end := tr.begin("archive.Compress")
	arc, err = loggrep.CompressArchive(env.c.raw, env.opts)
	end()
	compressS = time.Since(t0).Seconds()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := time.Now()
	end = tr.begin("archive.Open")
	a, err := loggrep.OpenArchive(arc)
	end()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	end = tr.begin("archive.ReconstructAll")
	lines, err = a.ReconstructAll()
	end()
	reconstructS = time.Since(t1).Seconds()
	return arc, lines, compressS, reconstructS, err
}

// checkReconstruct holds the reconstruction to the input, byte for byte.
func checkReconstruct(lines []string, raw []byte) error {
	if got := joinLines(lines); !bytes.Equal(got, raw) {
		return fmt.Errorf("reconstructed %d bytes in %d lines differ from the %d input bytes", len(got), len(lines), len(raw))
	}
	return nil
}

// restoreBlocks restores every block of the archive on its own, reps times:
// open the block's CapsuleBox cold and reconstruct its lines, as a reader
// fetching the context around a match does. One ReconstructAll per pass
// gives three samples a run; this gives the read side of seal-archive a
// latency distribution of its own.
func restoreBlocks(arc []byte, c *corpus, reps int, fails *failures) (latS []float64, err error) {
	boxes, lineOff, _, err := frameBoxes(arc)
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < reps; rep++ {
		for bi, box := range boxes {
			t0 := time.Now()
			st, err := loggrep.Open(box, loggrep.QueryOptions{})
			var lines []string
			if err == nil {
				lines, err = st.ReconstructAll()
			}
			d := time.Since(t0)
			if err == nil && !slices.Equal(lines, c.lines[lineOff[bi]:lineOff[bi]+len(lines)]) {
				err = fmt.Errorf("restored lines differ from the input")
			}
			fails.check(fmt.Sprintf("restore block %d", bi), err)
			if err == nil {
				latS = append(latS, d.Seconds())
			}
		}
	}
	return latS, nil
}

func runSealArchive(cfg engineConfig, tr *tracer) (*result, error) {
	env, setupS, err := repeatSetup(cfg.setupReps, func() (*sealEnv, error) {
		return &sealEnv{c: genCorpus(cfg.seed, cfg.linesPerType), opts: archiveOptions(cfg.blockBytes)}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{Workload: "seal-archive"}
	var compress, reconstruct, restore []float64
	var arc []byte
	rawMB := float64(len(env.c.raw)) / 1e6
	cpu := 0.0
	start := time.Now()
	// At least three passes so that a median exists; then until the time
	// is used.
	for pass := 0; pass < 3 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		cpu0 := cpuSeconds()
		a, lines, cs, rs, err := sealPass(env, tr)
		cpu += cpuSeconds() - cpu0
		if err == nil {
			err = checkReconstruct(lines, env.c.raw)
		}
		res.fails.check(fmt.Sprintf("pass %d", pass), err)
		if err != nil {
			continue
		}
		arc = a
		compress = append(compress, cs)
		reconstruct = append(reconstruct, rs)
		// Enough restores over three passes for a p95 (minSamples).
		blocks := max(1, len(env.c.raw)/cfg.blockBytes)
		lat, err := restoreBlocks(arc, env.c, (cfg.minSamples+3*blocks-1)/(3*blocks), &res.fails)
		if err != nil {
			res.fails.check(fmt.Sprintf("pass %d frames", pass), err)
		}
		restore = append(restore, lat...)
	}
	if len(compress) == 0 || len(restore) == 0 {
		return res, nil
	}
	n := len(compress)
	sorted := sortedCopy(restore)
	res.E2E = []metric{
		{"setup_s", setupS, "s", cfg.setupReps},
		{"write_mb_s", rawMB / median(compress), "MB/s", n},
		{"read_p50_ms", percentile(sorted, 50) * 1e3, "ms", len(sorted)},
		{"read_p95_ms", percentile(sorted, 95) * 1e3, "ms", len(sorted)},
		{"compression_ratio", float64(len(env.c.raw)) / float64(len(arc)), "x", 1},
		{"cpu_s_per_gb", cpu / (float64(n) * rawMB / 1e3), "s/GB", n},
	}
	if tr != nil {
		lm := newLayerMetrics()
		lm.set("e2e.reconstruct_mb_s", rawMB/median(reconstruct), "MB/s")
		replaySeal(env, arc, tr, lm, median(compress))
		res.Layer = lm
	}
	return res, nil
}

// ---- query-cold ----

type coldEnv struct {
	c      *corpus
	arc    []byte
	buildS float64
	qs     []querySpec
	want   [][]int
}

// buildArchive generates the corpus and compresses it: the part of set-up
// both query workloads share, and their write side.
func buildArchive(cfg engineConfig) (coldEnv, error) {
	env := coldEnv{c: genCorpus(cfg.seed, cfg.linesPerType)}
	t0 := time.Now()
	arc, err := loggrep.CompressArchive(env.c.raw, archiveOptions(cfg.blockBytes))
	env.arc, env.buildS = arc, time.Since(t0).Seconds()
	return env, err
}

func setupCold(cfg engineConfig) (*coldEnv, error) {
	env, err := buildArchive(cfg)
	if err != nil {
		return nil, err
	}
	env.qs = coldQueries(cfg.seed)
	for _, q := range env.qs {
		env.want = append(env.want, expectLines(env.c.lines, q))
	}
	return &env, nil
}

// queryStats accumulates the timed samples of a query loop.
type queryStats struct {
	latS    []float64
	byClass map[string][]float64
	cpu     float64
}

func (qs *queryStats) add(class string, d time.Duration) {
	if qs.byClass == nil {
		qs.byClass = make(map[string][]float64)
	}
	qs.latS = append(qs.latS, d.Seconds())
	qs.byClass[class] = append(qs.byClass[class], d.Seconds())
}

// e2e renders the six end-to-end metrics of a query workload. The write
// side of a query workload is the archive build in its set-up.
func (qs *queryStats) e2e(setupS, buildS float64, setupReps int, raw, stored int) []metric {
	n := len(qs.latS)
	s := sortedCopy(qs.latS)
	rawGB := float64(raw) / 1e9
	return []metric{
		{"setup_s", setupS, "s", setupReps},
		{"write_mb_s", float64(raw) / 1e6 / buildS, "MB/s", setupReps},
		{"read_p50_ms", percentile(s, 50) * 1e3, "ms", n},
		{"read_p95_ms", percentile(s, 95) * 1e3, "ms", n},
		{"compression_ratio", float64(raw) / float64(stored), "x", 1},
		{"cpu_s_per_gb", qs.cpu / (float64(n) * rawGB), "s/GB", n},
	}
}

func runQueryCold(cfg engineConfig, tr *tracer) (*result, error) {
	var builds []float64
	env, setupS, err := repeatSetup(cfg.setupReps, func() (*coldEnv, error) {
		e, err := setupCold(cfg)
		if err == nil {
			builds = append(builds, e.buildS)
		}
		return e, err
	})
	if err != nil {
		return nil, err
	}
	res := &result{Workload: "query-cold"}
	var stats queryStats
	var attrs engineAttrs
	start := time.Now()
	cpu0 := cpuSeconds()
	for len(stats.latS) < cfg.minSamples || time.Since(start).Seconds() < cfg.seconds {
		for qi, q := range env.qs {
			// Every sample opens the archive bytes afresh: no capsule is
			// decompressed yet and no query is cached.
			lines, entries, d, err := coldSample(env.arc, q, tr, &attrs)
			if err == nil {
				err = checkResult(lines, entries, env.want[qi], env.c.lines)
			}
			res.fails.check(q.command(), err)
			if err == nil {
				stats.add(q.Class, d)
			}
		}
	}
	stats.cpu = cpuSeconds() - cpu0
	if len(stats.latS) == 0 {
		return res, nil
	}
	res.E2E = stats.e2e(setupS, median(builds), cfg.setupReps, len(env.c.raw), len(env.arc))
	if tr != nil {
		lm := newLayerMetrics()
		attrs.report(lm)
		lm.classLatencies(&stats)
		replayQuery(env.arc, env.qs, tr, lm)
		lm.set("trace.overhead_share", coldOverhead(env, &stats), "share")
		res.Layer = lm
	}
	return res, nil
}

// coldSample is one query-cold operation, timed as a user would see it:
// open the archive bytes, run one query with one worker.
func coldSample(arc []byte, q querySpec, tr *tracer, attrs *engineAttrs) (lines []int, entries []string, d time.Duration, err error) {
	done := tr.begin("bench.sample")
	defer done()
	t0 := time.Now()
	end := tr.begin("archive.Open")
	a, err := loggrep.OpenArchive(arc)
	end()
	if err != nil {
		return nil, nil, 0, err
	}
	r, err := archiveQuery(a, q, tr, attrs)
	d = time.Since(t0)
	if err != nil {
		return nil, nil, d, err
	}
	if len(r.Damaged) > 0 || r.Partial {
		return nil, nil, d, fmt.Errorf("answer flagged damaged=%d partial=%v", len(r.Damaged), r.Partial)
	}
	return r.Lines, r.Entries, d, nil
}

// coldOverhead runs a few untraced cycles after the traced loop and
// returns traced/untraced - 1 over the per-class median latencies.
func coldOverhead(env *coldEnv, traced *queryStats) float64 {
	var plain queryStats
	for cycle := 0; cycle < 5; cycle++ {
		for _, q := range env.qs {
			if _, _, d, err := coldSample(env.arc, q, nil, nil); err == nil {
				plain.add(q.Class, d)
			}
		}
	}
	return overheadShare(traced, &plain)
}

// overheadShare compares two query loops class by class (so a different
// class mix cannot pose as overhead) and returns the mean of
// traced/untraced - 1 over the classes both ran.
func overheadShare(traced, plain *queryStats) float64 {
	var shares []float64
	for class, p := range plain.byClass {
		if t := traced.byClass[class]; len(t) > 0 && median(p) > 0 {
			shares = append(shares, median(t)/median(p)-1)
		}
	}
	if len(shares) == 0 {
		return 0
	}
	return sum(shares) / float64(len(shares))
}

// ---- query-refine ----

type refineEnv struct {
	coldEnv
	a *loggrep.Archive
}

// setupRefine builds the archive, opens it once and warms it with the
// first warmQueries queries: afterwards nearly every capsule a timed query
// needs is already decompressed, and no timed query repeats a warm one.
func setupRefine(cfg engineConfig, fails *failures) (*refineEnv, error) {
	built, err := buildArchive(cfg)
	if err != nil {
		return nil, err
	}
	env := &refineEnv{coldEnv: built}
	env.qs = refineQueries(env.c, cfg.seed, cfg.warmQueries+cfg.maxRefine)
	if len(env.qs) < cfg.warmQueries+cfg.minSamples {
		return nil, fmt.Errorf("corpus yields only %d refine queries, need %d", len(env.qs), cfg.warmQueries+cfg.minSamples)
	}
	if env.want, err = expectMany(env.c.lines, env.qs); err != nil {
		return nil, err
	}
	if env.a, err = loggrep.OpenArchive(env.arc); err != nil {
		return nil, err
	}
	for qi, q := range env.qs[:cfg.warmQueries] {
		r, err := env.a.Query(q.command(), 1)
		if err == nil {
			err = checkResult(r.Lines, r.Entries, env.want[qi], env.c.lines)
		}
		fails.check("warm-up "+q.command(), err)
	}
	return env, nil
}

func runQueryRefine(cfg engineConfig, tr *tracer) (*result, error) {
	res := &result{Workload: "query-refine"}
	var builds []float64
	env, setupS, err := repeatSetup(cfg.setupReps, func() (*refineEnv, error) {
		e, err := setupRefine(cfg, &res.fails)
		if err == nil {
			builds = append(builds, e.buildS)
		}
		return e, err
	})
	if err != nil {
		return nil, err
	}
	var stats queryStats
	var attrs engineAttrs
	start := time.Now()
	cpu0 := cpuSeconds()
	timed := env.qs[cfg.warmQueries:]
	used := 0
	for qi, q := range timed {
		if len(stats.latS) >= cfg.minSamples && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		used++
		done := tr.begin("bench.sample")
		t0 := time.Now()
		r, err := archiveQuery(env.a, q, tr, &attrs)
		d := time.Since(t0)
		done()
		if err == nil {
			err = checkResult(r.Lines, r.Entries, env.want[cfg.warmQueries+qi], env.c.lines)
		}
		res.fails.check(q.command(), err)
		if err == nil {
			stats.add(q.Class, d)
		}
	}
	stats.cpu = cpuSeconds() - cpu0
	if len(stats.latS) == 0 {
		return res, nil
	}
	res.E2E = stats.e2e(setupS, median(builds), cfg.setupReps, len(env.c.raw), len(env.arc))
	if tr != nil {
		lm := newLayerMetrics()
		attrs.report(lm)
		lm.classLatencies(&stats)
		// The layer replay re-runs a slice of the timed queries; 200 is
		// enough for medians and keeps the traced run short.
		replayQuery(env.arc, timed[:min(used, 200)], tr, lm)
		var plain queryStats
		for _, q := range timed[used:min(used+500, len(timed))] {
			t0 := time.Now()
			if _, err := env.a.Query(q.command(), 1); err == nil {
				plain.add(q.Class, time.Since(t0))
			}
		}
		lm.set("trace.overhead_share", overheadShare(&stats, &plain), "share")
		res.Layer = lm
	}
	return res, nil
}
