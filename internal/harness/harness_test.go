package harness

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"loggrep/internal/costmodel"
	"loggrep/internal/loggen"
)

func quickLogs(t *testing.T, names ...string) []loggen.LogType {
	t.Helper()
	var out []loggen.LogType
	for _, n := range names {
		lt, ok := loggen.ByName(n)
		if !ok {
			t.Fatalf("log %s missing", n)
		}
		out = append(out, lt)
	}
	return out
}

func TestRunFig7SmallSweep(t *testing.T) {
	logs := quickLogs(t, "A", "Hdfs")
	rows, err := RunFig7(logs, CoreSystems(), QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*5 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	// Every system must agree on the match count per log (equivalence).
	byLog := map[string]int{}
	for _, r := range rows {
		if r.CompBytes <= 0 || r.CompressSec <= 0 || r.QuerySec <= 0 {
			t.Fatalf("row %+v has non-positive measurements", r)
		}
		if prev, ok := byLog[r.Log]; ok {
			if prev != r.Matches {
				t.Fatalf("%s: systems disagree on matches (%d vs %d)", r.Log, prev, r.Matches)
			}
		} else {
			byLog[r.Log] = r.Matches
		}
		if r.Matches == 0 {
			t.Fatalf("%s: query matched nothing", r.Log)
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	if !strings.Contains(buf.String(), "Query latency") || !strings.Contains(buf.String(), "LG") {
		t.Fatalf("report missing sections:\n%s", buf.String())
	}
}

func TestFig8Aggregation(t *testing.T) {
	logs := quickLogs(t, "A")
	rows, err := RunFig7(logs, CoreSystems(), QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	f8 := Fig8(rows, costmodel.Default())
	if len(f8) != 5 {
		t.Fatalf("fig8 rows = %d", len(f8))
	}
	for _, r := range f8 {
		if r.Total() <= 0 {
			t.Fatalf("%s has non-positive cost", r.System)
		}
	}
	// ES storage cost must dominate the others' storage cost.
	es, _ := findFig8(f8, "ES")
	lg, _ := findFig8(f8, "LG")
	if es.Storage <= lg.Storage {
		t.Errorf("ES storage $%.3f should exceed LG storage $%.3f", es.Storage, lg.Storage)
	}
	var buf bytes.Buffer
	PrintFig8(&buf, f8)
	if !strings.Contains(buf.String(), "total") {
		t.Fatal("fig8 report malformed")
	}
}

func TestRunFig9Ablations(t *testing.T) {
	logs := quickLogs(t, "A", "G")
	rows, err := RunFig9(logs, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 4 structural + cache
		t.Fatalf("fig9 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Normalized <= 0 {
			t.Fatalf("%s normalized latency %v", r.Version, r.Normalized)
		}
	}
	var buf bytes.Buffer
	PrintFig9(&buf, rows)
	if !strings.Contains(buf.String(), "w/o cache") {
		t.Fatal("fig9 report missing cache row")
	}
}

func TestRefiningSession(t *testing.T) {
	cmds := refiningSession("A AND B AND C")
	want := []string{"A", "A AND B", "A AND B AND C"}
	if len(cmds) != len(want) {
		t.Fatalf("cmds = %v", cmds)
	}
	for i := range want {
		if cmds[i] != want[i] {
			t.Fatalf("cmds = %v", cmds)
		}
	}
}

func TestRunFig3(t *testing.T) {
	buckets, acc := RunFig3(7, 800)
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.Single + b.Multi
	}
	if total != 800 {
		t.Fatalf("histogram covers %d vectors, want 800", total)
	}
	// The paper's premise: low-duplication vectors are overwhelmingly
	// single-pattern.
	if acc < 0.75 {
		t.Fatalf("low-dup single-pattern share %.2f too low", acc)
	}
	var buf bytes.Buffer
	PrintFig3(&buf, buckets, acc)
	if !strings.Contains(buf.String(), "dup rate") {
		t.Fatal("fig3 report malformed")
	}
}

func TestRunStatsGranularityOrdering(t *testing.T) {
	logs := quickLogs(t, "A", "G", "Hdfs")
	rows, err := RunStats(logs, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("stats rows = %d", len(rows))
	}
	// §2.2/§2.3's central claim: finer granularity gives far stricter
	// summaries than the whole block. (Vector vs sub-variable ordering can
	// jitter on tiny quick-config samples, so assert against the block.)
	block, vec, sub := rows[0], rows[1], rows[2]
	if !(block.AvgTypes >= vec.AvgTypes && vec.AvgTypes >= sub.AvgTypes) {
		t.Errorf("types not monotone: %v %v %v", block.AvgTypes, vec.AvgTypes, sub.AvgTypes)
	}
	if vec.AvgLenVariance > block.AvgLenVariance/2 {
		t.Errorf("vector variance %v not well below block variance %v", vec.AvgLenVariance, block.AvgLenVariance)
	}
	if sub.AvgLenVariance > block.AvgLenVariance/2 {
		t.Errorf("sub-variable variance %v not well below block variance %v", sub.AvgLenVariance, block.AvgLenVariance)
	}
	var buf bytes.Buffer
	PrintStats(&buf, rows)
	if !strings.Contains(buf.String(), "granularity") {
		t.Fatal("stats report malformed")
	}
}

func TestRunPadding(t *testing.T) {
	logs := quickLogs(t, "A", "D")
	rows := RunPadding(logs, QuickConfig())
	if len(rows) != 2 {
		t.Fatalf("padding rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper: padding is roughly ratio-neutral (0.99×–1.10×);
		// allow a wider band for the small quick config.
		if r.PaddedOverUnp < 0.85 || r.PaddedOverUnp > 1.35 {
			t.Errorf("%s: padding ratio effect %.2f out of plausible band", r.Log, r.PaddedOverUnp)
		}
	}
	var buf bytes.Buffer
	PrintPadding(&buf, rows)
	if !strings.Contains(buf.String(), "pad/unpad") {
		t.Fatal("padding report malformed")
	}
}

func TestCrossovers(t *testing.T) {
	rows := []Fig7Row{
		{Log: "X", System: "LG", RawBytes: 1e9, CompBytes: 5e7, CompressSec: 50, QuerySec: 1},
		{Log: "X", System: "ES", RawBytes: 1e9, CompBytes: 2e9, CompressSec: 100, QuerySec: 0.01},
		{Log: "Y", System: "LG", RawBytes: 1e9, CompBytes: 5e7, CompressSec: 50, QuerySec: 0.005},
		{Log: "Y", System: "ES", RawBytes: 1e9, CompBytes: 2e9, CompressSec: 100, QuerySec: 0.01},
	}
	xs := Crossovers(rows, costmodel.Default())
	if len(xs) != 1 || xs[0].Log != "X" {
		t.Fatalf("crossovers = %+v", xs)
	}
	if xs[0].Queries <= 0 {
		t.Fatal("crossover query count must be positive")
	}
	var buf bytes.Buffer
	PrintCrossovers(&buf, xs)
	if !strings.Contains(buf.String(), "X") {
		t.Fatal("crossover report malformed")
	}
}

// fig7Pinned is what RunFig7 over loggen.Production() at 2000 lines, seed 1
// produces per system: the summed Table-1 match count, exact, and the
// aggregate compression ratio. Measured on commit bf7eea6; to re-measure
// after a change that is meant to move them, run this test with -v and
// copy the values it logs.
var fig7Pinned = []struct {
	system  string
	matches int
	ratio   float64
}{
	{"ggrep", 680, 4.9167},
	{"CLP", 680, 4.9345},
	{"ES", 680, 1.5691},
	{"LG-SP", 680, 4.1681},
	{"LG", 680, 4.3454},
}

// fig7Drift aggregates rows per system and compares them against
// fig7Pinned. It returns what it measured and one line per system whose
// match count differs or whose ratio is more than 5 % off.
func fig7Drift(rows []Fig7Row) (got string, drift []string) {
	type agg struct {
		raw, comp int64
		matches   int
	}
	sums := map[string]*agg{}
	for _, r := range rows {
		a := sums[r.System]
		if a == nil {
			a = &agg{}
			sums[r.System] = a
		}
		a.raw += r.RawBytes
		a.comp += r.CompBytes
		a.matches += r.Matches
	}
	for _, want := range fig7Pinned {
		a := sums[want.system]
		if a == nil {
			drift = append(drift, want.system+": no rows")
			continue
		}
		ratio := float64(a.raw) / float64(a.comp)
		got += fmt.Sprintf(" {%q, %d, %.4f}", want.system, a.matches, ratio)
		if a.matches != want.matches || math.Abs(ratio-want.ratio) > 0.05*want.ratio {
			drift = append(drift, fmt.Sprintf("%s: matches %d ratio %.4f, pinned %d / %.4f",
				want.system, a.matches, ratio, want.matches, want.ratio))
		}
	}
	return got, drift
}

// The deterministic outputs of the Figure 7 run hold still: a change that
// loses matches or moves a system's ratio by more than 5 % fails here.
func TestFig7Deterministic(t *testing.T) {
	rows, err := RunFig7(loggen.Production(), CoreSystems(), Config{LinesPerLog: 2000, Seed: 1, QueryReps: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, drift := fig7Drift(rows)
	t.Logf("measured:%s", got)
	if len(drift) > 0 {
		t.Fatalf("Figure 7 moved:\n%s", strings.Join(drift, "\n"))
	}
	t.Run("doctored", func(t *testing.T) {
		bad := append([]Fig7Row(nil), rows...)
		for i := range bad {
			if bad[i].System == "LG" {
				bad[i].CompBytes *= 2
			}
		}
		if _, drift := fig7Drift(bad); len(drift) != 1 || !strings.HasPrefix(drift[0], "LG:") {
			t.Fatalf("halved LG ratio reported as %q, want one LG line", drift)
		}
	})
}

func TestRunFile(t *testing.T) {
	lt, ok := loggen.ByName("Hdfs")
	if !ok {
		t.Fatal("Hdfs missing")
	}
	block := lt.Block(3, 1500)
	rows, err := RunFile("user.log", block, lt.Query, CoreSystems(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	matches := rows[0].Matches
	for _, r := range rows {
		if r.Matches != matches || r.Matches == 0 {
			t.Fatalf("system %s disagrees: %d vs %d", r.System, r.Matches, matches)
		}
		if r.Class != "file" || r.Log != "user.log" {
			t.Fatalf("row labels wrong: %+v", r)
		}
	}
	if _, err := RunFile("x", block, "AND AND", CoreSystems(), 1); err == nil {
		t.Fatal("bad query accepted")
	}
}
