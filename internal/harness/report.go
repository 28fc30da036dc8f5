package harness

import (
	"fmt"
	"io"
	"sort"
)

// PrintFig7 renders the latency / ratio / speed tables behind Figure 7
// (production logs) or the §6.2 text (public logs).
func PrintFig7(w io.Writer, rows []Fig7Row) {
	systems := systemOrder(rows)
	logs := logOrder(rows)
	cell := map[string]map[string]Fig7Row{}
	for _, r := range rows {
		if cell[r.Log] == nil {
			cell[r.Log] = map[string]Fig7Row{}
		}
		cell[r.Log][r.System] = r
	}

	section := func(title string, value func(Fig7Row) string) {
		fmt.Fprintf(w, "\n%s\n", title)
		fmt.Fprintf(w, "%-12s", "log")
		for _, s := range systems {
			fmt.Fprintf(w, "%12s", s)
		}
		fmt.Fprintln(w)
		for _, l := range logs {
			fmt.Fprintf(w, "%-12s", l)
			for _, s := range systems {
				fmt.Fprintf(w, "%12s", value(cell[l][s]))
			}
			fmt.Fprintln(w)
		}
	}
	section("Query latency (ms)", func(r Fig7Row) string {
		return fmt.Sprintf("%.1f", r.QuerySec*1e3)
	})
	section("Compression ratio", func(r Fig7Row) string {
		return fmt.Sprintf("%.2f", r.Metrics().Ratio())
	})
	section("Compression speed (MB/s)", func(r Fig7Row) string {
		return fmt.Sprintf("%.2f", r.Metrics().CompressionMBps())
	})
}

// PrintFig8 renders the stacked cost bars of Figure 8.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintf(w, "\nOverall cost ($/TB, %s)\n", "storage + compression + query")
	fmt.Fprintf(w, "%-10s%12s%14s%10s%10s\n", "system", "storage", "compression", "query", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s%12.3f%14.3f%10.3f%10.3f\n", r.System, r.Storage, r.Compression, r.Query, r.Total())
	}
	if lg, err := findFig8(rows, "LG"); err == nil {
		for _, other := range []string{"ggrep", "CLP", "ES", "LG-SP"} {
			if o, err := findFig8(rows, other); err == nil && o.Total() > 0 {
				fmt.Fprintf(w, "LG / %-6s = %5.1f%%\n", other, 100*lg.Total()/o.Total())
			}
		}
	}
}

func findFig8(rows []Fig8Row, name string) (Fig8Row, error) {
	for _, r := range rows {
		if r.System == name {
			return r, nil
		}
	}
	return Fig8Row{}, fmt.Errorf("harness: no row %q", name)
}

// PrintFig9 renders the ablation chart of Figure 9.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintf(w, "\nAblations (avg query latency, normalized to full LogGrep = 1.0)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %.2fx\n", r.Version, r.Normalized)
	}
}

// PrintFig3 renders the histogram of Figure 3.
func PrintFig3(w io.Writer, buckets []Fig3Bucket, accuracy float64) {
	fmt.Fprintf(w, "\nSingle- vs multi-pattern vectors by duplication rate (Figure 3)\n")
	fmt.Fprintf(w, "%-12s%10s%10s\n", "dup rate", "single", "multi")
	for _, b := range buckets {
		fmt.Fprintf(w, "[%.1f,%.1f)  %10d%10d\n", b.Lo, b.Lo+0.1, b.Single, b.Multi)
	}
	fmt.Fprintf(w, "low-duplication vectors that are single-pattern: %.1f%%\n", accuracy*100)
}

// PrintStats renders the §2.2 granularity statistics.
func PrintStats(w io.Writer, rows []StatsRow) {
	fmt.Fprintf(w, "\nSummary strictness by granularity (§2.2/§2.3)\n")
	fmt.Fprintf(w, "%-18s%12s%16s\n", "granularity", "avg types", "len variance")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s%12.1f%16.1f\n", r.Granularity, r.AvgTypes, r.AvgLenVariance)
	}
}

// PrintPadding renders the §6.3 padding study.
func PrintPadding(w io.Writer, rows []PaddingRow) {
	fmt.Fprintf(w, "\nFixed-length padding effect on compression ratio (§6.3)\n")
	fmt.Fprintf(w, "%-12s%10s%10s%12s\n", "log", "padded", "unpadded", "pad/unpad")
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s%10.2f%10.2f%12.2f\n", r.Log, r.PaddedRatio, r.UnpaddedRatio, r.PaddedOverUnp)
		sum += r.PaddedOverUnp
	}
	fmt.Fprintf(w, "average pad/unpad: %.2fx\n", sum/float64(len(rows)))
}

// PrintCrossovers renders the ES cost crossover analysis.
func PrintCrossovers(w io.Writer, rows []CrossoverRow) {
	fmt.Fprintf(w, "\nQueries needed for ES to beat LogGrep on cost (§6.1/§6.2)\n")
	if len(rows) == 0 {
		fmt.Fprintln(w, "(ES was not faster than LogGrep on any measured log)")
		return
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %.0f queries\n", r.Log, r.Queries)
	}
}

func systemOrder(rows []Fig7Row) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.System] {
			seen[r.System] = true
			out = append(out, r.System)
		}
	}
	return out
}

func logOrder(rows []Fig7Row) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Log] {
			seen[r.Log] = true
			out = append(out, r.Log)
		}
	}
	sort.Strings(out)
	return out
}
