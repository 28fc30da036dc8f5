package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// checkNoiseMode measures the benchmark's own noise floor: every workload
// runs four times on one commit and one seed, in the order A-B-B-A, so that
// drift over the session (thermal, page cache, neighbours) lands on both
// sets alike. Two sets that disagree by more than a metric's bound mean the
// benchmark cannot referee that metric at that bound. It writes both sets
// under the out dir, prints one row per metric and workload (the table
// NOISE.md records), and returns the process's exit code: 1 on a breach.
func checkNoiseMode(rn *runner, seed int64) int {
	type set map[string][]map[string]float64 // workload -> runs -> metric -> value
	sets := map[string]set{"A": {}, "B": {}}
	for _, w := range workloadNames {
		for _, s := range []string{"A", "B", "B", "A"} {
			res, err := rn.run(w, seed, false)
			if err != nil || !res.correct() {
				fmt.Fprintf(os.Stderr, "bench: %s (set %s): run failed: %v %v\n", w, s, err, res)
				return 1
			}
			run := make(map[string]float64)
			for _, m := range res.E2E {
				run[m.Name] = m.Value
			}
			sets[s][w] = append(sets[s][w], run)
			fmt.Fprintf(os.Stderr, "# %s set %s done\n", w, s)
		}
	}
	if err := os.MkdirAll(rn.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for name, s := range sets {
		b, _ := json.MarshalIndent(s, "", "  ") // maps of floats always marshal
		if err := os.WriteFile(filepath.Join(rn.outDir, "noise-"+name+".json"), append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}

	fmt.Printf("nproc %d, %s, seed %d, %g s per run, 2 runs per set\n\n", runtime.NumCPU(), runtime.Version(), seed, rn.seconds)
	fmt.Println("| workload | metric | set A | set B | difference | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|")
	mean := func(runs []map[string]float64, name string) float64 {
		t := 0.0
		for _, r := range runs {
			t += r[name]
		}
		return t / float64(len(runs))
	}
	breaches := 0
	for _, w := range workloadNames {
		for _, d := range e2eTable {
			a, b := mean(sets["A"][w], d.Name), mean(sets["B"][w], d.Name)
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n", w, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("\n%d metric(s) differ between the two sets by more than their bound\n", breaches)
		return 1
	}
	return 0
}
