package main

// metricDef declares a metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; TestBenchmarkJSONMatchesTables
// holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// e2eTable is what a user of the system sees, and every workload reports
// every row. The rows are the paper's own trade (Fig. 7: ratio, write
// speed, read latency) plus its cost model's CPU (Fig. 8); README.md maps
// them to the twelve metrics ISSUE 11 named per workload. One bound per
// metric has to hold on all four workloads, and serve-mixed (three busy
// threads on two cores) is the noisiest: the timing bounds are this box's
// noise floor for it (NOISE.md), not the regression the project tolerates.
// A claim of a gain rests on alternating paired runs, not on these bounds.
var e2eTable = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"write_mb_s", "MB/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"compression_ratio", "x", "higher", 0.04},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
}

// layerTable is the per-layer ledger, reported by traced runs. The e2e.*
// rows are user-visible metrics only one workload has, so they cannot be
// rows of e2eTable; they are reported here, ungated.
var layerTable = []metricDef{
	{"logparse.parse_s", "s", "lower", 0},
	{"logparse.lines_per_s", "1/s", "higher", 0},
	{"logparse.templates_per_block", "count", "lower", 0},
	{"logparse.outlier_line_share", "share", "lower", 0},
	{"rtpattern.extract_s", "s", "lower", 0},
	{"rtpattern.vectors", "count", "lower", 0},
	{"rtpattern.real_share", "share", "higher", 0},
	{"rtpattern.outlier_value_share", "share", "lower", 0},
	{"lzma.compress_s", "s", "lower", 0},
	{"lzma.compress_mb_s", "MB/s", "higher", 0},
	{"lzma.calls", "count", "lower", 0},
	{"lzma.ratio", "x", "higher", 0},
	{"lzma.small_payload_share", "share", "lower", 0},
	{"lzma.alloc_bytes_per_call", "B", "lower", 0},
	{"lzma.compress_s.subvar", "s", "lower", 0},
	{"lzma.compress_s.dict", "s", "lower", 0},
	{"lzma.compress_s.index", "s", "lower", 0},
	{"lzma.compress_s.outlier", "s", "lower", 0},
	{"lzma.decompress_s", "s", "lower", 0},
	{"lzma.decompress_mb_s", "MB/s", "higher", 0},
	{"capsule.writebox_self_s", "s", "lower", 0},
	{"capsule.readbox_ms", "ms", "lower", 0},
	{"capsule.capsules_per_block", "count", "lower", 0},
	{"capsule.padding_share", "share", "lower", 0},
	{"blockindex.build_s", "s", "lower", 0},
	{"blockindex.bytes_share", "share", "lower", 0},
	{"blockindex.plan_us", "us", "lower", 0},
	{"blockindex.skip_rate", "share", "higher", 0},
	{"blockindex.skip_rate_needle", "share", "higher", 0},
	{"blockindex.skip_rate_absent", "share", "higher", 0},
	{"blockindex.false_admit_rate", "share", "lower", 0},
	{"strmatch.scan_s", "s", "lower", 0},
	{"strmatch.scan_gb_s", "GB/s", "higher", 0},
	{"strmatch.rows_per_s", "1/s", "higher", 0},
	{"query.parse_us", "us", "lower", 0},
	{"core.compress_s", "s", "lower", 0},
	{"core.compress_block_p50_ms", "ms", "lower", 0},
	{"core.compress_block_max_ms", "ms", "lower", 0},
	{"core.compress_unattributed_share", "share", "lower", 0},
	{"core.open_ms", "ms", "lower", 0},
	{"core.query_ms", "ms", "lower", 0},
	{"core.stamp_skip_rate", "share", "higher", 0},
	{"core.decompressions_per_query", "count", "lower", 0},
	{"core.scanned_bytes_per_query", "B", "lower", 0},
	{"core.scan_cache_hit_rate", "share", "higher", 0},
	{"core.query_cache_hit_rate", "share", "higher", 0},
	{"core.reconstruct_lines_per_s", "1/s", "higher", 0},
	{"core.alloc_bytes_per_query", "B", "lower", 0},
	{"archive.open_ms", "ms", "lower", 0},
	{"archive.frame_self_s", "s", "lower", 0},
	{"archive.query_needle_p50_ms", "ms", "lower", 0},
	{"archive.query_broad_p50_ms", "ms", "lower", 0},
	{"archive.query_absent_p50_ms", "ms", "lower", 0},
	{"archive.query_refine_p50_ms", "ms", "lower", 0},
	{"archive.query_unattributed_share", "share", "lower", 0},
	{"ingest.seal_p50_ms", "ms", "lower", 0},
	{"ingest.seal_p99_ms", "ms", "lower", 0},
	{"ingest.seals", "count", "lower", 0},
	{"ingest.backpressure_429", "count", "lower", 0},
	{"ingest.wal_rollbacks", "count", "lower", 0},
	{"ingest.sealed_cache_hit_rate", "share", "higher", 0},
	{"ingest.written_bytes_per_raw_byte", "x", "lower", 0},
	{"server.http_overhead_ms", "ms", "lower", 0},
	{"server.shed_429", "count", "lower", 0},
	{"server.query_late_p95_ms", "ms", "lower", 0},
	{"server.peak_rss_mb", "MB", "lower", 0},
	{"server.cpu_s", "s", "lower", 0},
	{"process.build_s", "s", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.alloc_mb", "MB", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"e2e.reconstruct_mb_s", "MB/s", "higher", 0},
	{"e2e.ingest_lines_s", "1/s", "higher", 0},
	{"e2e.ingest_ack_p50_ms", "ms", "lower", 0},
	{"e2e.ingest_ack_p99_ms", "ms", "lower", 0},
	{"e2e.drain_s", "s", "lower", 0},
	{"e2e.query_p50_ms", "ms", "lower", 0},
	{"e2e.query_p95_ms", "ms", "lower", 0},
}
