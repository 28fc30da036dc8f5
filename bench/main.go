// Command bench is this repository's benchmark: four workloads
// (seal-archive, query-cold, query-refine, serve-mixed), six end-to-end
// metrics every workload reports, and a per-layer ledger whose layers are
// the repository's own packages. See README.md beside this file.
//
//	bash bench/run.sh                                   # all four workloads, default seed
//	bash bench/run.sh -workload query-cold -seed 7      # one workload
//	bash bench/run.sh -workload query-cold -trace 1     # its per-layer ledger
//	bash bench/run.sh -check-noise                      # two interleaved sets, A-B-B-A
//
// (cd bench && go run . ...) does the same with the build cache in $HOME.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metric is one measured value; N is the number of samples behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is one run of one workload.
type result struct {
	Workload string
	fails    failures
	E2E      []metric
	Layer    layerMetrics // traced runs only
}

// contractLine is the benchmark contract's result line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
// encoding/json writes a float with every digit it was measured with.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]contractVal `json:"metrics"`
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contract() contractLine {
	ms := r.E2E
	if r.Layer != nil {
		ms = r.Layer.list()
	}
	line := contractLine{Correct: r.correct(), Attempted: max(r.fails.attempted, 1), Failed: r.fails.failed, Metrics: make(map[string]contractVal, len(ms))}
	for _, m := range ms {
		line.Metrics[m.Name] = contractVal{m.Value, m.Unit}
	}
	return line
}

// correct: every checked operation matched the oracle, and the run got far
// enough to measure.
func (r *result) correct() bool {
	return r.fails.failed == 0 && r.fails.attempted > 0 && len(r.E2E) == len(e2eTable)
}

// print writes one line per metric: workload metric value unit n.
func (r *result) print() {
	for _, m := range r.E2E {
		fmt.Printf("%-13s %-34s %14.6g %-6s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	if r.Layer != nil {
		for _, m := range r.Layer.list() {
			fmt.Printf("%-13s %-34s %14.6g %-6s\n", r.Workload, m.Name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-13s %-34s %14.6g %-6s n=%d\n", r.Workload, "error_rate", ratio(float64(r.fails.failed), float64(r.fails.attempted)), "share", r.fails.attempted)
	for _, why := range r.fails.reasons {
		fmt.Printf("%-13s FAILED %s\n", r.Workload, why)
	}
}

var workloadNames = []string{"seal-archive", "query-cold", "query-refine", "serve-mixed"}

// runner holds what the flags decide for every run.
type runner struct {
	seconds float64
	outDir  string
	// loggrepd is built on first use by serve-mixed; buildS is what that
	// and the launcher's own compile cost.
	loggrepd string
	buildS   float64
}

// run executes one workload once.
func (rn *runner) run(workload string, seed int64, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var res *result
	var err error
	switch workload {
	case "seal-archive":
		cfg := defaultEngineConfig(seed, rn.seconds)
		cfg.setupReps = sealSetupReps
		res, err = runSealArchive(cfg, tr)
	case "query-cold":
		res, err = runQueryCold(defaultEngineConfig(seed, rn.seconds), tr)
	case "query-refine":
		res, err = runQueryRefine(defaultEngineConfig(seed, rn.seconds), tr)
	case "serve-mixed":
		if rn.loggrepd == "" {
			if err := os.MkdirAll(rn.outDir, 0o755); err != nil {
				return nil, err
			}
			var took float64
			if rn.loggrepd, took, err = buildLoggrepd(rn.outDir); err != nil {
				return nil, err
			}
			rn.buildS += took
		}
		res, err = runServeMixed(serveConfig{
			seed: seed, seconds: rn.seconds,
			batchLines: batchLines, batchRate: batchRate, queryRate: queryRate, burst: burstBatches,
			setupReps: setupReps, settled: settledQueries, loggrepd: rn.loggrepd, tmpRoot: os.Getenv("TMPDIR"),
		}, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return res, err
	}
	for _, m := range res.E2E {
		if m.Name == "read_p95_ms" && !supported(m.N, 95) {
			return res, fmt.Errorf("p95 of %d samples: fewer than %d lie beyond it", m.N, minBeyond)
		}
	}
	if res.Layer != nil {
		res.Layer.process(rn.buildS)
		if tr != nil {
			path, err := writeTrace(rn.outDir, workload, tr.spans)
			if err != nil {
				return res, err
			}
			fmt.Fprintf(os.Stderr, "# %d spans written to %s\n", len(tr.spans), path)
		}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all four")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "how long a run's timed section lasts (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 records spans around the calls into each layer and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "also write the results as JSON to this file")
	checkNoise := flag.Bool("check-noise", false, "run the suite as two interleaved sets (A-B-B-A per workload) and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// run.sh and `go run .` both start the bench in bench/.
	rn := &runner{seconds: *seconds, outDir: "out", buildS: buildSeconds()}
	if *checkNoise {
		os.Exit(checkNoiseMode(rn, *seed))
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	ok := true
	var results []*result
	for _, name := range names {
		res, err := rn.run(name, *seed, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.print()
		ok = ok && res.correct()
		results = append(results, res)
	}
	// One workload prints the contract's line; several print one object
	// holding each workload's line under its name.
	var doc any = results[0].contract()
	if len(results) > 1 {
		all := make(map[string]contractLine, len(results))
		for _, r := range results {
			all[r.Workload] = r.contract()
		}
		doc = all
	}
	last, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(last, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("%s\n", last)
	if !ok {
		os.Exit(1)
	}
}
