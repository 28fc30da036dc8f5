// Package capsule implements LogGrep's fine-grained storage units and the
// CapsuleBox on-disk container (§4.2–§4.3 of the paper).
//
// A Capsule holds one sub-variable vector, dictionary vector, index vector,
// or outlier vector, padded to fixed width (pad byte 0x00) so queries can
// locate the i-th value in O(1) and convert a fixed-length scan's hit
// positions to row numbers by division. Each Capsule carries a stamp — a 6-bit character-type
// mask and the maximal value length — used to skip decompression during
// keyword matching. A CapsuleBox is the compressed form of one log block:
// a compressed directory (static patterns, runtime patterns, stamps,
// capsule table with each capsule's codec, per-group row counts), the
// groups' row→line maps as Rice bitstreams that decode on first touch,
// then independently compressed Capsule payloads. The writer codes the
// directory and the payloads with DEFLATE, which a whole-buffer decoder
// reads back. ReadBox reads that one format (BoxPrefix): a box of a retired
// revision is ErrOldFormat, which internal/legacy and `loggrep upgrade`
// turn into a current one.
package capsule
