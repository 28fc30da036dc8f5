package core

import "loggrep/internal/obsv"

// Process-wide metrics for the compression pipeline and the query engine,
// registered in obsv.Default (served by internal/server at /metrics).
// Every name here is documented in OPERATIONS.md; keep the two in sync.
var (
	mCompressBlocks = obsv.Default.Counter("loggrep_compress_blocks_total",
		"Log blocks compressed into CapsuleBoxes")
	mCompressRawBytes = obsv.Default.Counter("loggrep_compress_raw_bytes_total",
		"Raw log bytes consumed by compression")
	mCompressBoxBytes = obsv.Default.Counter("loggrep_compress_box_bytes_total",
		"CapsuleBox bytes produced by compression")
	mCompressParseNS = obsv.Default.Histogram("loggrep_compress_parse_ns", "ns",
		"Per-block static-pattern parsing time (Parser stage)")
	mCompressExtractNS = obsv.Default.Histogram("loggrep_compress_extract_ns", "ns",
		"Per-block runtime-pattern extraction time (Extractor stage)")
	mCompressAssembleNS = obsv.Default.Histogram("loggrep_compress_assemble_ns", "ns",
		"Per-block capsule assembly time (Assembler stage)")
	mCompressPackNS = obsv.Default.Histogram("loggrep_compress_pack_ns", "ns",
		"Per-block padding and capsule compression time (Packer stage)")
	mCompressPatternNS = obsv.Default.Histogram("loggrep_compress_pattern_ns", "ns",
		"Per-static-pattern (group) extract+assemble time")
	mCompressGroups = obsv.Default.Histogram("loggrep_compress_groups", "1",
		"Static-pattern groups per compressed block")

	mQueries = obsv.Default.Counter("loggrep_queries_total",
		"Queries executed against single-block stores")
	mQueryNS = obsv.Default.Histogram("loggrep_query_ns", "ns",
		"Per-query end-to-end latency (single-block stores)")
	mQueryCacheHits = obsv.Default.Counter("loggrep_query_cache_hits_total",
		"Queries answered from the Query Cache")
	mQueryStampSkips = obsv.Default.Counter("loggrep_query_stamp_skips_total",
		"Capsule scans avoided by stamp filtering")
	mQueryScans = obsv.Default.Counter("loggrep_query_capsule_scans_total",
		"Capsule payload scans executed")
	mQueryScanCacheHits = obsv.Default.Counter("loggrep_query_scan_cache_hits_total",
		"Capsule scans served from the per-store scan cache")
	mQueryDecompressions = obsv.Default.Counter("loggrep_query_decompressions_total",
		"Capsule payloads decompressed by queries")
	mQueryBytesScanned = obsv.Default.Counter("loggrep_query_scanned_bytes_total",
		"Decompressed capsule bytes examined by scans")
	mQueryMatches = obsv.Default.Histogram("loggrep_query_matches", "1",
		"Matching lines per query")
	mQueriesCancelled = obsv.Default.Counter("loggrep_query_cancelled_total",
		"Queries stopped by context cancellation or deadline expiry")
	mQueryBudgetExceeded = obsv.Default.Counter("loggrep_query_budget_exceeded_total",
		"Queries cut short by an exhausted work budget (partial results)")
)
