// Package archive stores a log stream as a sequence of independently
// compressed CapsuleBox blocks, the way the paper's production setting
// works (§2: applications write raw logs into 64 MB blocks; each block is
// compressed in the background and queried independently).
//
// The archive extends the paper's Capsule-stamp idea one level up: every
// block carries a block stamp (character-type mask plus maximal line
// length over all its entries), so a query fragment that cannot occur in a
// block skips it without even decoding the block's metadata. Compression
// of blocks and query execution over blocks both parallelize across
// goroutines — the "scale out" direction §8 names as future work.
//
// Frame format v2 adds per-frame CRC32C checksums (see frame.go) so that
// storage corruption is detected and quarantined block by block instead of
// poisoning the whole archive. Open reads that one frame format of boxes of
// the one current revision, and serves a bare CapsuleBox as an archive of
// one block. Retired formats — v1 frames, older box revisions — are
// ErrOldFormat, a clean refusal that is never damage; internal/legacy and
// `loggrep upgrade` rewrite them.
//
// Cross-block query work is observable: each query records block-skip and
// per-block latency metrics into obsv.Default (the loggrep_archive_*
// family, documented in OPERATIONS.md), and a Search given a trace records a
// span per searched block on it.
package archive
