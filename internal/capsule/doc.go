// Package capsule implements LogGrep's fine-grained storage units and the
// CapsuleBox on-disk container (§4.2–§4.3 of the paper).
//
// A Capsule holds one sub-variable vector, dictionary vector, index vector,
// or outlier vector, padded to fixed width (pad byte 0x00) so queries can
// locate the i-th value in O(1) and convert Boyer–Moore hit positions to row
// numbers by division. Each Capsule carries a stamp — a 6-bit character-type
// mask and the maximal value length — used to skip decompression during
// keyword matching. A CapsuleBox is the compressed form of one log block:
// an LZMA-compressed directory (static patterns, runtime patterns, stamps,
// capsule table, per-group row counts), the groups' row→line maps as Rice
// bitstreams that decode on first touch, then independently
// LZMA-compressed Capsule payloads.
package capsule
