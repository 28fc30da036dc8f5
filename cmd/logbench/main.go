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
	"flag"
	"fmt"
	"os"

	"loggrep/internal/costmodel"
	"loggrep/internal/harness"
	"loggrep/internal/loggen"
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
