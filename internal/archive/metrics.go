package archive

import "loggrep/internal/obsv"

// Cross-block query metrics, registered in obsv.Default (served by
// internal/server at /metrics). Every name here is documented in
// OPERATIONS.md; keep the two in sync.
var (
	mArchiveQueries = obsv.Default.Counter("loggrep_archive_queries_total",
		"Queries executed against multi-block archives")
	mArchiveQueryNS = obsv.Default.Histogram("loggrep_archive_query_ns", "ns",
		"Per-query end-to-end latency across all blocks of an archive")
	mArchiveBlocksSkipped = obsv.Default.Counter("loggrep_archive_blocks_skipped_total",
		"Blocks eliminated by block-stamp filtering without opening them")
	mArchiveBlocksSearched = obsv.Default.Counter("loggrep_archive_blocks_searched_total",
		"Blocks whose stores actually executed a query")
	mArchiveBlockNS = obsv.Default.Histogram("loggrep_archive_block_query_ns", "ns",
		"Per-block query latency within archive queries")
	mArchiveBlockOpenNS = obsv.Default.Histogram("loggrep_archive_block_open_ns", "ns",
		"Cold block opens: payload checksum and CapsuleBox open, once per block")
	mArchiveQueriesCancelled = obsv.Default.Counter("loggrep_archive_query_cancelled_total",
		"Archive queries stopped by context cancellation or deadline expiry")
	mArchiveQueryPartial = obsv.Default.Counter("loggrep_archive_query_partial_total",
		"Archive queries cut short by an exhausted work budget (partial results)")

	// Block-skipping index funnel (internal/blockindex).
	mArchiveIndexBytes = obsv.Default.Counter("loggrep_archive_index_bytes_total",
		"Bytes of block-skipping index sections written by archive writers")
	mArchiveIndexScanNS = obsv.Default.Histogram("loggrep_archive_index_scan_ns", "ns",
		"Per-block time archive writers spend scanning raw blocks for the index (4-gram set and token vocabulary)")
	mArchiveIndexVocabOverflow = obsv.Default.Counter("loggrep_archive_index_vocab_overflow_total",
		"Archives whose postings section was dropped at the vocabulary cap")
	mArchiveSkippedPostings = obsv.Default.Counter("loggrep_archive_blocks_skipped_postings_total",
		"Blocks eliminated by the token-postings section without opening them")
	mArchiveSkippedBlooms = obsv.Default.Counter("loggrep_archive_blocks_skipped_blooms_total",
		"Blocks eliminated by per-block gram bloom filters without opening them")
	mArchiveIndexAdmitted = obsv.Default.Counter("loggrep_archive_index_admitted_total",
		"Blocks an index-filterable query admitted for searching")
	mArchiveIndexFalseAdmit = obsv.Default.Counter("loggrep_archive_index_false_admit_total",
		"Index-admitted blocks that were searched and yielded no match (upper bound on index false positives)")
	mArchiveIndexUnusable = obsv.Default.Counter("loggrep_archive_index_unusable_total",
		"Archive queries that ran as full scans: index absent or damaged, or query not token-filterable")
)
