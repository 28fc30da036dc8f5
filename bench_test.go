// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each Benchmark corresponds to one artifact — see DESIGN.md §3 for
// the experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// results. The full-size sweep lives in cmd/logbench; these benches use
// laptop-scale blocks so `go test -bench=.` finishes in minutes.
package loggrep_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/costmodel"
	"loggrep/internal/harness"
	"loggrep/internal/loggen"
	"loggrep/internal/rtpattern"
)

// benchLines is the block size for benchmark runs.
const benchLines = 8000

// benchLogs picks a representative subset so -bench=. stays tractable;
// cmd/logbench sweeps all 37 logs.
func benchLogs(b *testing.B, names ...string) []loggen.LogType {
	b.Helper()
	var out []loggen.LogType
	for _, n := range names {
		lt, ok := loggen.ByName(n)
		if !ok {
			b.Fatalf("log %s missing", n)
		}
		out = append(out, lt)
	}
	return out
}

var productionSubset = []string{"A", "D", "G", "L", "S"}
var publicSubset = []string{"Apache", "Hdfs", "Ssh", "Windows"}

// BenchmarkFig3PatternDistribution regenerates Figure 3: categorize the
// 13,238-vector corpus by duplication rate and report how many
// low-duplication vectors are single-pattern (the premise of the 0.5
// threshold heuristic).
func BenchmarkFig3PatternDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buckets, acc := harness.RunFig3(1, 13238)
		lowSingle, lowMulti := 0, 0
		for _, bk := range buckets[:5] {
			lowSingle += bk.Single
			lowMulti += bk.Multi
		}
		b.ReportMetric(acc*100, "%low-dup-single")
		b.ReportMetric(float64(lowSingle+lowMulti), "low-dup-vectors")
	}
}

// BenchmarkFig7aQueryLatency regenerates Figure 7(a): per-system query
// latency on production logs, one sub-benchmark per (log, system).
func BenchmarkFig7aQueryLatency(b *testing.B) {
	for _, lt := range benchLogs(b, productionSubset...) {
		block := lt.Block(1, benchLines)
		for _, sys := range harness.CoreSystems() {
			data, err := sys.Compress(block)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("log=%s/sys=%s", lt.Name, sys.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q, err := sys.Open(data) // cold store each iteration
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := q.Query(lt.Query); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7bCompressionRatio regenerates Figure 7(b): compression
// ratio per system (reported as the "ratio" metric; time measures the
// compression run).
func BenchmarkFig7bCompressionRatio(b *testing.B) {
	for _, lt := range benchLogs(b, productionSubset...) {
		block := lt.Block(1, benchLines)
		for _, sys := range harness.CoreSystems() {
			b.Run(fmt.Sprintf("log=%s/sys=%s", lt.Name, sys.Name), func(b *testing.B) {
				var size int
				for i := 0; i < b.N; i++ {
					data, err := sys.Compress(block)
					if err != nil {
						b.Fatal(err)
					}
					size = len(data)
				}
				b.ReportMetric(float64(len(block))/float64(size), "ratio")
			})
		}
	}
}

// BenchmarkFig7cCompressionSpeed regenerates Figure 7(c): compression
// speed in MB/s per system.
func BenchmarkFig7cCompressionSpeed(b *testing.B) {
	for _, lt := range benchLogs(b, "A", "G") {
		block := lt.Block(1, benchLines)
		for _, sys := range harness.CoreSystems() {
			b.Run(fmt.Sprintf("log=%s/sys=%s", lt.Name, sys.Name), func(b *testing.B) {
				b.SetBytes(int64(len(block)))
				for i := 0; i < b.N; i++ {
					if _, err := sys.Compress(block); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8OverallCost regenerates Figure 8: the Equation 1 cost per
// TB per system, averaged over a log subset ("$/TB" metric).
func BenchmarkFig8OverallCost(b *testing.B) {
	for _, class := range []struct {
		name string
		logs []string
	}{
		{"production", productionSubset},
		{"public", publicSubset},
	} {
		b.Run(class.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := harness.RunFig7(benchLogs(b, class.logs...), harness.CoreSystems(),
					harness.Config{LinesPerLog: benchLines / 2, Seed: 1, QueryReps: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range harness.Fig8(rows, costmodel.Default()) {
					b.ReportMetric(r.Total(), r.System+"-$/TB")
				}
			}
		})
	}
}

// BenchmarkFig8CostCrossover regenerates the §6.1/§6.2 crossover analysis:
// the query count at which ES becomes cheaper than LogGrep.
func BenchmarkFig8CostCrossover(b *testing.B) {
	logs := benchLogs(b, productionSubset...)
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig7(logs, harness.CoreSystems(),
			harness.Config{LinesPerLog: benchLines / 2, Seed: 1, QueryReps: 1})
		if err != nil {
			b.Fatal(err)
		}
		xs := harness.Crossovers(rows, costmodel.Default())
		min, max := 0.0, 0.0
		for j, x := range xs {
			if j == 0 || x.Queries < min {
				min = x.Queries
			}
			if x.Queries > max {
				max = x.Queries
			}
		}
		b.ReportMetric(min, "min-queries")
		b.ReportMetric(max, "max-queries")
	}
}

// BenchmarkFig9Ablations regenerates Figure 9: average query latency of
// each ablated version normalized to full LogGrep.
func BenchmarkFig9Ablations(b *testing.B) {
	logs := benchLogs(b, "A", "G", "L")
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig9(logs, harness.Config{LinesPerLog: benchLines / 2, Seed: 1, QueryReps: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Normalized, strings.ReplaceAll(strings.ReplaceAll(r.Version, " ", "-"), "/", ""))
		}
	}
}

// BenchmarkSec22Summaries regenerates the §2.2/§2.3 motivating statistics:
// average character types and length variance at block, variable-vector
// and sub-variable granularity.
func BenchmarkSec22Summaries(b *testing.B) {
	logs := benchLogs(b, productionSubset...)
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunStats(logs, harness.Config{LinesPerLog: benchLines / 2, Seed: 1, QueryReps: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			unit := strings.ReplaceAll(r.Granularity, " ", "-")
			b.ReportMetric(r.AvgTypes, unit+"-types")
			b.ReportMetric(r.AvgLenVariance, unit+"-lenvar")
		}
	}
}

// BenchmarkSec63PaddingRatio regenerates the §6.3 padding study: the
// padded/unpadded compression-ratio quotient (paper: 0.99×–1.10×).
func BenchmarkSec63PaddingRatio(b *testing.B) {
	logs := benchLogs(b, productionSubset...)
	for i := 0; i < b.N; i++ {
		rows := harness.RunPadding(logs, harness.Config{LinesPerLog: benchLines / 2, Seed: 1, QueryReps: 1})
		sum := 0.0
		for _, r := range rows {
			sum += r.PaddedOverUnp
		}
		b.ReportMetric(sum/float64(len(rows)), "pad/unpad")
	}
}

// BenchmarkTable1Queries runs every log type's Table 1 query against
// LogGrep, one sub-benchmark per log — the full query workload of the
// evaluation.
func BenchmarkTable1Queries(b *testing.B) {
	lg := harness.LogGrepSystem("LG", core.DefaultOptions(), core.QueryOptions{})
	for _, lt := range loggen.All() {
		block := lt.Block(1, benchLines/2)
		data, err := lg.Compress(block)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("log="+lt.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := lg.Open(data)
				if err != nil {
					b.Fatal(err)
				}
				lines, _, err := q.Query(lt.Query)
				if err != nil {
					b.Fatal(err)
				}
				if len(lines) == 0 {
					b.Fatal("query matched nothing")
				}
			}
		})
	}
}

// BenchmarkRuntimeExtraction measures the two extraction algorithms of
// §4.1 in isolation (supporting the O(n) / O(n log n) complexity claims).
func BenchmarkRuntimeExtraction(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		realVec := make([]string, n)
		for i := range realVec {
			realVec[i] = fmt.Sprintf("blk_%d", 1e8+i*7919)
		}
		b.Run(fmt.Sprintf("real/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rtpattern.ExtractReal(realVec, rtpattern.DefaultOptions())
			}
		})
		nominal := make([]string, n)
		for i := range nominal {
			nominal[i] = fmt.Sprintf("ERR#%d", i%97)
		}
		b.Run(fmt.Sprintf("nominal/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rtpattern.ExtractNominal(nominal)
			}
		})
	}
}

// BenchmarkDupThresholdSweep probes §4.1's claim that the real/nominal
// threshold is insensitive "as long as it is somewhere in the middle":
// compression ratio and query latency across threshold choices.
func BenchmarkDupThresholdSweep(b *testing.B) {
	lt, ok := loggen.ByName("A")
	if !ok {
		b.Fatal("log A missing")
	}
	block := lt.Block(1, benchLines)
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		opts := core.DefaultOptions()
		opts.Extract.DupThreshold = th
		data := core.Compress(block, opts)
		b.Run(fmt.Sprintf("threshold=%.1f", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := core.Open(data, core.QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.Search(context.Background(), lt.Query, core.SearchOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(block))/float64(len(data)), "ratio")
		})
	}
}

// BenchmarkArchiveParallelQuery measures multi-block query scaling with
// worker count (the §8 "scale out" direction).
func BenchmarkArchiveParallelQuery(b *testing.B) {
	lt, ok := loggen.ByName("G")
	if !ok {
		b.Fatal("log G missing")
	}
	stream := lt.Block(1, 48000)
	opts := archive.DefaultOptions()
	opts.BlockBytes = 512 << 10
	data, err := archive.Compress(stream, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := archive.Open(data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Search(context.Background(), lt.Query, core.SearchOpts{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArchiveOpenVerify tracks the corruption-hardening cost of
// frame format v2: open + full query (header CRC verified at open,
// payload CRC at first block use). The writer no longer emits the
// checksum-free v1 stream this was once paired against; the measured
// v2/v1 delta (<5% of open+query time) is recorded in EXPERIMENTS.md.
func BenchmarkArchiveOpenVerify(b *testing.B) {
	lt, ok := loggen.ByName("G")
	if !ok {
		b.Fatal("log G missing")
	}
	stream := lt.Block(1, 48000)
	opts := archive.DefaultOptions()
	opts.BlockBytes = 512 << 10
	v2, err := archive.Compress(stream, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("open+query/v2", func(b *testing.B) {
		b.SetBytes(int64(len(stream)))
		for i := 0; i < b.N; i++ {
			a, err := archive.Open(v2)
			if err != nil {
				b.Fatal(err)
			}
			res, err := a.Search(context.Background(), lt.Query, core.SearchOpts{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Damaged) != 0 {
				b.Fatal("pristine archive reports damage")
			}
		}
	})
	// Shallow verify walks every block's payload checksum + decode — the
	// "scrub" cost an operator pays to audit an archive at rest.
	b.Run("verify/v2", func(b *testing.B) {
		b.SetBytes(int64(len(v2)))
		for i := 0; i < b.N; i++ {
			a, err := archive.Open(v2)
			if err != nil {
				b.Fatal(err)
			}
			if d := a.Verify(false); d != nil {
				b.Fatal(d)
			}
		}
	})
}

// BenchmarkChunkedCapsules quantifies the chunked-capsule extension
// (DESIGN.md §1 #18): reconstructing a clustered incident from a chunked
// box vs a whole-capsule box, plus the compression-ratio cost of smaller
// compression contexts.
func BenchmarkChunkedCapsules(b *testing.B) {
	// Chunking matters when groups (and so capsules) are large: a
	// single-template workload concentrates 60k rows in few capsules.
	var sb strings.Builder
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&sb, "req id:%016X from host%03d latency %dus\n", i*2654435761, i%40, i%9999)
	}
	block := []byte(sb.String())
	for _, chunk := range []int{0, 64 << 10, 16 << 10} {
		opts := core.DefaultOptions()
		opts.ChunkBytes = chunk
		data := core.Compress(block, opts)
		name := "whole"
		if chunk > 0 {
			name = fmt.Sprintf("chunk=%dKB", chunk>>10)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := core.Open(data, core.QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				// A clustered incident: 50 adjacent entries.
				for line := 12000; line < 12050; line++ {
					if _, err := st.ReconstructLine(context.Background(), line); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(block))/float64(len(data)), "ratio")
		})
	}
}
