// Package loggrep is a log compression and query library that structurizes
// log data in fine-grained units by exploiting both static and runtime
// patterns, after "LogGrep: Fast and Cheap Cloud Log Storage by Exploiting
// both Static and Runtime Patterns" (Wei et al., EuroSys 2023).
//
// # Overview
//
// LogGrep compresses a raw log block (the paper uses 64 MB blocks) into a
// CapsuleBox: log entries are parsed into static-pattern groups, each
// variable vector is decomposed by automatically extracted runtime patterns
// into Capsules, and every Capsule is padded to fixed width, stamped with a
// character-type mask and maximal length, and LZMA-compressed
// independently. Queries are grep-like commands with AND/OR/NOT and
// within-token '*' wildcards; the engine matches keywords on the static and
// runtime patterns, uses Capsule stamps to avoid decompressing Capsules
// that cannot contain a keyword, and scans the few remaining Capsules with
// fixed-length Boyer–Moore matching.
//
// # Quick start
//
//	data := loggrep.Compress(rawBlock, loggrep.DefaultOptions())
//	store, err := loggrep.Open(data, loggrep.QueryOptions{})
//	if err != nil { ... }
//	res, err := store.Search(ctx, "ERROR AND dst:11.8.* NOT state:503", loggrep.SearchOpts{})
//	for i, line := range res.Lines {
//		fmt.Printf("%d: %s\n", line, res.Entries[i])
//	}
//
// Results are exact: the Capsule machinery only filters, and every
// candidate entry is verified against the full phrase, so a query returns
// precisely the entries a grep over the raw block would return.
package loggrep

import (
	"io"

	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
	"loggrep/internal/rtpattern"
)

// Options configures compression. The zero value is NOT valid; start from
// DefaultOptions.
type Options = core.Options

// QueryOptions configures a Store's query behaviour.
type QueryOptions = core.QueryOptions

// Store answers grep-like queries over one compressed log block.
type Store = core.Store

// Result is the answer to a query: the match count, the matching line
// numbers and reconstructed entries, what could not be searched (Damaged)
// and whether the query was cut short (Partial). A Store, an Archive and a
// live stream all return it.
type Result = core.Result

// SearchOpts are the per-call choices of Store.Search and Archive.Search:
// a work budget, a trace to record into, block parallelism, count-only.
// The zero value is a plain, unlimited, untraced query.
type SearchOpts = core.SearchOpts

// DefaultOptions mirrors the paper's configuration: 5% parser sampling,
// duplication-rate threshold 0.5, 95% delimiter coverage, padding and
// stamps enabled.
func DefaultOptions() Options { return core.DefaultOptions() }

// StaticOnlyOptions configures LogGrep-SP (§2.2 of the paper): static
// patterns and whole-vector summaries only, no runtime patterns. It exists
// as a baseline; prefer DefaultOptions.
func StaticOnlyOptions() Options {
	o := core.DefaultOptions()
	o.StaticOnly = true
	return o
}

// Compress structurizes and compresses one raw log block into a CapsuleBox.
func Compress(block []byte, opts Options) []byte {
	return core.Compress(block, opts)
}

// Open parses a CapsuleBox for querying.
func Open(data []byte, opts QueryOptions) (*Store, error) {
	return core.Open(data, opts)
}

// RawQuery runs a command over an uncompressed block with the same exact
// semantics as Store.Search — the path for blocks not yet compressed.
func RawQuery(block []byte, command string) (lines []int, entries []string, err error) {
	return core.RawQuery(block, command)
}

// Session is the paper's refining mode: Store.NewSession starts one,
// Session.Refine narrows the query clause by clause, and Session.Back
// revisits earlier steps (free, via the Query Cache).
type Session = core.Session

// Budget caps the work one query may perform (bytes scanned, payload
// decompressions); zero fields mean unlimited. A query that exhausts its
// budget returns the matches verified so far with Result.Partial set —
// degraded, not wrong. Track one with NewBudgetState and pass the state in
// SearchOpts.Budget.
type Budget = core.Budget

// BudgetState is one query's meter: it counts the query's work (bytes
// scanned, decompressions, blocks) against a Budget; a single state can be
// shared across stores so the caps bound the whole query. nil means
// unlimited and counts nothing.
type BudgetState = core.BudgetState

// NewBudgetState starts a meter under a budget; a zero Budget counts
// without capping.
func NewBudgetState(b Budget) *BudgetState { return core.NewBudgetState(b) }

// ReadHook gates capsule payload fetches and archive block opens —
// the seam tests use for latency and stall injection (see
// Store.SetReadHook, Archive.SetReadHook, QueryOptions.ReadHook).
type ReadHook = core.ReadHook

// Explain is the query planner report from Store.Explain: the per-group
// filtering funnel and the work Capsule stamps avoided.
type Explain = core.Explain

// ParseOptions exposes the static-pattern parser knobs for Options.Parse.
type ParseOptions = logparse.Options

// ExtractOptions exposes the runtime-pattern extractor knobs for
// Options.Extract.
type ExtractOptions = rtpattern.Options

// Archive groups many compressed blocks: applications write raw logs into
// ~64 MB blocks which are compressed in the background (§2 of the paper);
// an Archive queries across all of them, skipping blocks whose block-level
// stamp cannot admit the query and parallelizing across goroutines.
type Archive = archive.Archive

// ArchiveWriter streams raw log bytes into an archive, cutting blocks at
// line boundaries and compressing them concurrently.
type ArchiveWriter = archive.Writer

// ArchiveOptions configures archive creation.
type ArchiveOptions = archive.Options

// ArchiveResult is Result under its former archive-only name: line numbers
// are stream-global, and Damaged lists blocks that could not be searched
// (results are complete for every line range not listed there).
type ArchiveResult = archive.Result

// ArchiveBlockError describes one damaged region of an archive: a block
// whose checksum or decode failed, or a line range lost to header
// corruption or truncation.
type ArchiveBlockError = archive.BlockError

// DefaultArchiveOptions uses 64 MB blocks (the paper's production block
// size) and one compression worker per CPU.
func DefaultArchiveOptions() ArchiveOptions { return archive.DefaultOptions() }

// NewArchiveWriter starts a streaming archive writer; Close flushes the
// final partial block.
func NewArchiveWriter(w io.Writer, opts ArchiveOptions) (*ArchiveWriter, error) {
	return archive.NewWriter(w, opts)
}

// CompressArchive is the one-shot archive form for an in-memory stream.
func CompressArchive(stream []byte, opts ArchiveOptions) ([]byte, error) {
	return archive.Compress(stream, opts)
}

// OpenArchive parses an archive produced by an ArchiveWriter, either
// format version, or a bare CapsuleBox, which it serves as an archive of
// one block. Damaged v2 frames are quarantined rather than failing the
// open; inspect Archive.Damage or Archive.Verify for their extent.
func OpenArchive(data []byte) (*Archive, error) { return archive.Open(data) }

// IsArchive reports whether data looks like an archive (any supported
// format version) rather than a single CapsuleBox.
func IsArchive(data []byte) bool { return archive.IsArchive(data) }

// Trace records the per-stage spans of one query: start one with NewTrace
// and hand it to Search in SearchOpts.Trace. Its String method renders the
// breakdown `loggrep query -trace` prints.
type Trace = obsv.Trace

// NewTrace starts a trace for SearchOpts.Trace; the Search it is handed to
// renames it after the source that recorded it ("query", "archive-query").
func NewTrace(name string) *Trace { return obsv.NewTrace(name) }

// TraceData is a Trace's JSON-ready snapshot (Trace.Data).
type TraceData = obsv.TraceData

// Metrics returns the process-wide metric registry every LogGrep
// subsystem records into: compression stage timings and sizes, query
// counters, archive block skips. internal/server serves it at /metrics;
// embedders can export it with WriteJSON or WriteProm.
func Metrics() *obsv.Registry { return obsv.Default }
