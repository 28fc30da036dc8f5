// Command bench_compare diffs a current `logbench -json` result against a
// committed baseline and exits non-zero on regression. CI runs it in the
// bench-smoke job; locally:
//
//	go run ./scripts -baseline BENCH_baseline.json -current BENCH_fig7.json
//
// -tol is the fractional worse-direction budget every non-exact metric
// gets. Exact metrics (match counts) fail on any drift regardless of
// tolerance, and a baseline metric missing from the current run always
// fails: silently dropping a benchmark is itself a regression.
package main

import (
	"flag"
	"fmt"
	"os"

	"loggrep/internal/benchfmt"
)

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline result file")
	curPath := flag.String("current", "", "freshly measured result file")
	tol := flag.Float64("tol", 0.3, "fractional regression tolerance")
	flag.Parse()
	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "bench_compare: -current is required")
		os.Exit(2)
	}

	baseline, err := benchfmt.Read(*basePath)
	if err != nil {
		fatal(err)
	}
	current, err := benchfmt.Read(*curPath)
	if err != nil {
		fatal(err)
	}
	deltas, err := benchfmt.Compare(baseline, current, *tol)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("baseline %s (%s, go %s) vs current %s (%s, go %s)\n",
		baseline.Env.Commit, baseline.Env.Version, baseline.Env.GoVersion,
		current.Env.Commit, current.Env.Version, current.Env.GoVersion)
	fmt.Print(benchfmt.FormatDeltas(deltas))
	if reg := benchfmt.Regressions(deltas); len(reg) > 0 {
		fmt.Fprintf(os.Stderr, "bench_compare: %d metric(s) regressed\n", len(reg))
		os.Exit(1)
	}
	fmt.Println("bench_compare: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench_compare:", err)
	os.Exit(1)
}
