package harness

import (
	"fmt"
	"io"
	"time"

	"loggrep/internal/obsv"
)

// stageRows maps the compression-stage histograms in obsv.Default to the
// row labels PrintStageBreakdown prints, in pipeline order. The last row
// is the index digest an archive block's seal feeds from its parse
// (core.CompressScan), net of which assembly is reported, so the rows
// partition the seal; it reads 0 for runs that build bare boxes only.
var stageRows = []struct{ label, metric string }{
	{"parse (static patterns)", "loggrep_compress_parse_ns"},
	{"extract (runtime patterns)", "loggrep_compress_extract_ns"},
	{"assemble (capsules)", "loggrep_compress_assemble_ns"},
	{"pack (codec + layout)", "loggrep_compress_pack_ns"},
	{"index digest (grams + vocab)", "loggrep_archive_index_scan_ns"},
}

// PrintStageBreakdown reports where compression time went, per stage,
// from the histograms the core and archive packages record in
// obsv.Default. It is the text form of the paper's compression-cost
// discussion (§6.2): one row per pipeline stage with total time, share,
// and per-block p50/p99.
func PrintStageBreakdown(w io.Writer) {
	var total int64
	type row struct {
		label string
		snap  obsv.HistogramSnapshot
	}
	rows := make([]row, 0, len(stageRows))
	for _, sr := range stageRows {
		h := obsv.Default.Histogram(sr.metric, "ns", "")
		s := h.Snapshot()
		rows = append(rows, row{sr.label, s})
		total += s.Sum
	}
	fmt.Fprintf(w, "\nCompression stage breakdown (%d block(s))\n", rows[0].snap.Count)
	if total == 0 {
		fmt.Fprintln(w, "  no compression recorded")
		return
	}
	fmt.Fprintf(w, "%-30s%12s%8s%12s%12s\n", "stage", "total", "share", "p50/block", "p99/block")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s%12s%7.1f%%%12s%12s\n",
			r.label,
			time.Duration(r.snap.Sum).Round(time.Millisecond),
			100*float64(r.snap.Sum)/float64(total),
			time.Duration(r.snap.P50).Round(time.Microsecond),
			time.Duration(r.snap.P99).Round(time.Microsecond))
	}
}
