// Package core implements the LogGrep engine: the compression pipeline
// (Parser → Extractor → Assembler → Packer, §3–§4 of the paper), the query
// engine (Locator with runtime-pattern matching and Capsule-stamp
// filtering, fixed-length matching, §5), the Reconstructor, and the Query
// Cache.
//
// Compression (Compress) turns one raw log block into a CapsuleBox:
// logparse mines static patterns and partitions entries into per-template
// variable vectors, rtpattern decomposes each vector by runtime patterns
// into Capsules, and the packer pads, stamps, and compresses each Capsule
// independently (capsule.WriteBox chooses the codec). Querying (Store.Search) runs the paper's
// filter-then-verify scheme: keywords are matched structurally against
// static and runtime patterns, Capsule stamps prune Capsules that cannot
// contain a keyword, the few surviving Capsules are scanned with
// a fixed-length scan, and every candidate entry is verified against
// the full phrase — so results are always exact.
//
// Both paths are instrumented: per-stage compression timings and sizes,
// and per-query counters, are recorded into obsv.Default (metrics.go lists
// them; OPERATIONS.md documents them). A Search given a SearchOpts.Trace
// additionally records parse/filter/verify spans on it.
package core
