package archive

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/blockindex"
	"loggrep/internal/core"
	"loggrep/internal/liveops"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
	"loggrep/internal/rtpattern"
)

// BlockError describes one damaged region of an archive: a block whose
// checksum or decode failed, or a line range lost to header corruption or
// truncation. Queries report these alongside partial results instead of
// failing outright.
type BlockError struct {
	// Block is the ordinal of the damaged region among the archive's
	// frames (best effort when the frame itself was unreadable).
	Block int
	// FirstLine is the global line number of the first affected line.
	FirstLine int
	// NumLines is the number of affected lines; 0 means the extent is
	// unknown (e.g. the archive ends mid-frame with no terminator).
	NumLines int
	// Err is the underlying cause.
	Err error
}

// Error describes the damaged region: block, line range, and cause.
func (e *BlockError) Error() string {
	if e.NumLines > 0 {
		return fmt.Sprintf("block %d (lines %d-%d): %v", e.Block, e.FirstLine, e.FirstLine+e.NumLines-1, e.Err)
	}
	return fmt.Sprintf("block %d (line %d, extent unknown): %v", e.Block, e.FirstLine, e.Err)
}

// Unwrap returns the underlying cause for errors.Is/As.
func (e *BlockError) Unwrap() error { return e.Err }

// block is one opened archive block.
type block struct {
	idx      int // ordinal among the archive's frames
	box      []byte
	meta     blockMeta
	lineOff  int // global line number of the block's first line
	hasCRC   bool
	crc      uint32 // expected payload CRC32C (v2 only)
	storeMu  sync.Mutex
	store    *core.Store
	storeErr error
}

// fail builds the block's quarantine record.
func (b *block) fail(err error) *BlockError {
	return &BlockError{Block: b.idx, FirstLine: b.lineOff, NumLines: b.meta.numLines, Err: err}
}

// openStore lazily opens the block's CapsuleBox, verifying the payload
// checksum first. Verification happens here — not at Open — so that
// queries which skip the block via its stamp never pay for it, and the
// result (store or quarantine error) is latched either way. Cancellation
// and read-hook errors are NOT latched: an interrupted open must not
// quarantine a healthy block, so the next caller retries from scratch.
func (b *block) openStore(ctx context.Context, hook core.ReadHook) (*core.Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.storeMu.Lock()
	defer b.storeMu.Unlock()
	if b.store == nil && b.storeErr == nil {
		if hook != nil {
			// The block open is a real read (checksum + metadata decode);
			// gate it like one, without latching the hook's verdict.
			if err := hook(ctx); err != nil {
				return nil, err
			}
		}
		if b.hasCRC && crc32.Checksum(b.box, castagnoli) != b.crc {
			b.storeErr = b.fail(ErrChecksum)
		} else if st, err := core.Open(b.box, core.QueryOptions{ReadHook: hook}); err != nil {
			b.storeErr = b.fail(err)
		} else {
			b.store = st
		}
	}
	return b.store, b.storeErr
}

// Archive is an opened multi-block archive. It is safe for concurrent
// use: block stores synchronize internally.
type Archive struct {
	blocks   []*block
	damage   []BlockError // line ranges lost to structural damage, by FirstLine
	numLines int
	rawBytes int
	// blocksSkipped counts blocks eliminated by block stamps across all
	// queries (harness statistic). Atomic: queries may run concurrently.
	blocksSkipped atomic.Int64

	// index is the block-skipping index decoded from the sections after
	// the terminator; nil or empty when the archive has none (old writer,
	// -no-index, damage). indexDisabled turns it off at query time.
	index                *blockindex.Index
	indexDisabled        atomic.Bool
	indexSkippedPostings atomic.Int64
	indexSkippedBlooms   atomic.Int64

	hookMu   sync.Mutex
	readHook core.ReadHook
}

// SetReadHook installs (or clears, with nil) a read hook gating every
// block open and capsule payload fetch — the faultinject seam for latency
// and stall injection. It applies to already-opened blocks too.
func (a *Archive) SetReadHook(h core.ReadHook) {
	a.hookMu.Lock()
	a.readHook = h
	a.hookMu.Unlock()
	for _, b := range a.blocks {
		b.storeMu.Lock()
		st := b.store
		b.storeMu.Unlock()
		if st != nil {
			st.SetReadHook(h)
		}
	}
}

// hook returns the current read hook.
func (a *Archive) hook() core.ReadHook {
	a.hookMu.Lock()
	defer a.hookMu.Unlock()
	return a.readHook
}

// SkippedBlocks reports how many blocks stamp filtering eliminated
// across all queries so far.
func (a *Archive) SkippedBlocks() int { return int(a.blocksSkipped.Load()) }

// Open parses an archive produced by Writer/Compress, either format.
//
// For v2 archives every frame header is checksum-verified up front; frames
// with damaged headers are skipped by re-synchronizing on the next valid
// header, and the lost line ranges are recorded (see Damage) rather than
// failing the open. Payload checksums are deferred to first use. Open
// itself only fails when the data is not an archive at all.
func Open(data []byte) (*Archive, error) {
	switch {
	case hasMagic(data, Magic):
		return openV2(data)
	case hasMagic(data, MagicV1):
		return openV1(data)
	}
	return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
}

func openV2(data []byte) (*Archive, error) {
	a := &Archive{}
	var causes []error // structural faults in stream order
	pos := len(Magic)
	expect := 0 // line number the next in-order frame should start at
	termLines := -1
	tailStart := -1 // byte offset of the index tail, past the terminator
	for {
		if len(data)-pos < headerSize {
			causes = append(causes, fmt.Errorf("%w: archive ends mid-frame at offset %d (no terminator)", ErrCorrupt, pos))
			break
		}
		h, ok := decodeHeader(data[pos : pos+headerSize])
		if !ok {
			np, nh, found := resync(data, pos+1, expect)
			if !found {
				causes = append(causes, fmt.Errorf("%w: frame header damaged at offset %d; no later frame found", ErrCorrupt, pos))
				break
			}
			causes = append(causes, fmt.Errorf("%w: frame header damaged at offset %d; resynchronized at offset %d", ErrCorrupt, pos, np))
			pos, h = np, nh
		}
		if h.terminator() {
			termLines = h.lineOff
			tailStart = pos + headerSize
			break
		}
		if h.boxLen > len(data)-pos-headerSize {
			// The header survived, so the lost extent is known exactly:
			// advancing expect past the block makes finishV2's coverage scan
			// emit one damage entry for it, paired with this cause.
			causes = append(causes, fmt.Errorf("%w: frame payload truncated at offset %d", ErrCorrupt, pos))
			expect = h.lineOff + h.meta.numLines
			break
		}
		a.blocks = append(a.blocks, &block{
			box:     data[pos+headerSize : pos+headerSize+h.boxLen],
			meta:    h.meta,
			lineOff: h.lineOff,
			hasCRC:  true,
			crc:     h.payloadCRC,
		})
		expect = h.lineOff + h.meta.numLines
		pos += headerSize + h.boxLen
	}
	a.finishV2(termLines, expect, causes)
	if tailStart >= 0 && tailStart <= len(data) {
		// Index sections live past the terminator. Decoding never fails —
		// damage drops the affected section and queries scan every block.
		a.index = blockindex.DecodeSections(data[tailStart:])
	}
	return a, nil
}

// finishV2 reconciles the parsed blocks against the line space. Headers
// carry absolute line offsets, so surviving blocks keep their pristine
// global line numbers even when earlier frames were lost or frames arrive
// out of order; whatever the block set does not cover becomes damage.
func (a *Archive) finishV2(termLines, expect int, causes []error) {
	sort.SliceStable(a.blocks, func(i, j int) bool { return a.blocks[i].lineOff < a.blocks[j].lineOff })

	total := max(termLines, expect)
	kept := a.blocks[:0]
	covered := 0
	for _, b := range a.blocks {
		if b.lineOff < covered {
			// Overlaps a line range another block already covers; a frame
			// duplicated (or a resync false positive). Quarantine it.
			a.damage = append(a.damage, BlockError{FirstLine: b.lineOff, NumLines: b.meta.numLines,
				Err: fmt.Errorf("%w: block overlaps lines already covered", ErrCorrupt)})
			continue
		}
		kept = append(kept, b)
		covered = b.lineOff + b.meta.numLines
		if covered > total {
			total = covered
		}
	}
	a.blocks = kept
	a.numLines = total

	// Turn uncovered line ranges into damage entries, pairing them with
	// the structural causes in order (stream order and line order agree
	// for in-order archives).
	covered = 0
	for _, b := range a.blocks {
		if b.lineOff > covered {
			a.damage = append(a.damage, BlockError{FirstLine: covered, NumLines: b.lineOff - covered, Err: popCause(&causes)})
		}
		covered = b.lineOff + b.meta.numLines
	}
	if total > covered {
		a.damage = append(a.damage, BlockError{FirstLine: covered, NumLines: total - covered, Err: popCause(&causes)})
	}
	// Leftover causes lost no known lines (e.g. a missing terminator after
	// the last block); keep them as extent-unknown damage.
	for _, c := range causes {
		a.damage = append(a.damage, BlockError{FirstLine: total, NumLines: 0, Err: c})
	}

	sort.SliceStable(a.damage, func(i, j int) bool { return a.damage[i].FirstLine < a.damage[j].FirstLine })
	for i, b := range a.blocks {
		b.idx = i
		a.rawBytes += b.meta.rawBytes
	}
	// Damage ordinals count the blocks preceding each lost range.
	bi := 0
	for i := range a.damage {
		for bi < len(a.blocks) && a.blocks[bi].lineOff < a.damage[i].FirstLine {
			bi++
		}
		a.damage[i].Block = bi + countDamageBefore(a.damage[:i], a.damage[i].FirstLine)
	}
}

func popCause(causes *[]error) error {
	if len(*causes) == 0 {
		return fmt.Errorf("%w: lines lost to frame damage", ErrCorrupt)
	}
	c := (*causes)[0]
	*causes = (*causes)[1:]
	return c
}

func countDamageBefore(d []BlockError, line int) int {
	n := 0
	for i := range d {
		if d[i].FirstLine < line {
			n++
		}
	}
	return n
}

// resync scans forward from pos for a frame header whose checksum
// verifies and whose fields are self-consistent, so one damaged header
// costs one block, not the archive's tail. The extra field checks guard
// against the 2^-32 chance of payload bytes masquerading as a header.
func resync(data []byte, pos, expectLine int) (int, frameHeader, bool) {
	for ; pos+headerSize <= len(data); pos++ {
		h, ok := decodeHeader(data[pos : pos+headerSize])
		if !ok {
			continue
		}
		if h.terminator() {
			if h.meta.numLines == 0 && h.meta.rawBytes == 0 && h.lineOff >= expectLine {
				return pos, h, true
			}
			continue
		}
		if h.meta.numLines >= 1 && h.lineOff >= expectLine && h.boxLen <= len(data)-pos-headerSize {
			return pos, h, true
		}
	}
	return 0, frameHeader{}, false
}

// openV1 parses the legacy checksum-free format. Structural damage is not
// recoverable without checksummed headers, so any parse fault fails the
// open, exactly as v1 readers always did.
func openV1(data []byte) (*Archive, error) {
	a := &Archive{}
	pos := len(MagicV1)
	for {
		boxLen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad frame length", ErrCorrupt)
		}
		pos += n
		if boxLen == 0 {
			break // terminator
		}
		if uint64(len(data)-pos) < boxLen {
			return nil, fmt.Errorf("%w: truncated frame", ErrCorrupt)
		}
		b := &block{idx: len(a.blocks), box: data[pos : pos+int(boxLen)], lineOff: a.numLines}
		pos += int(boxLen)
		uv := func() (uint64, error) {
			v, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return 0, fmt.Errorf("%w: bad frame meta", ErrCorrupt)
			}
			pos += n
			return v, nil
		}
		numLines, err := uv()
		if err != nil {
			return nil, err
		}
		rawBytes, err := uv()
		if err != nil {
			return nil, err
		}
		if pos >= len(data) {
			return nil, fmt.Errorf("%w: bad frame stamp", ErrCorrupt)
		}
		mask := data[pos]
		pos++
		maxLen, err := uv()
		if err != nil {
			return nil, err
		}
		if numLines > maxFrameLines || rawBytes > maxFrameBytes || maxLen > maxFrameBytes {
			return nil, fmt.Errorf("%w: implausible frame meta", ErrCorrupt)
		}
		b.meta = blockMeta{
			numLines: int(numLines),
			rawBytes: int(rawBytes),
			stamp:    rtpattern.Stamp{TypeMask: mask, MaxLen: int(maxLen)},
		}
		a.numLines += b.meta.numLines
		a.rawBytes += b.meta.rawBytes
		a.blocks = append(a.blocks, b)
	}
	return a, nil
}

// maxFrameLines/maxFrameBytes bound v1 frame metadata, which carries no
// checksum: a corrupt varint must not become a giant line count.
const (
	maxFrameLines = 1 << 40
	maxFrameBytes = 1 << 40
)

// NumBlocks returns the count of readable blocks.
func (a *Archive) NumBlocks() int { return len(a.blocks) }

// NumLines returns the total entry count, damaged ranges included, so
// surviving lines keep the same global numbers as in a pristine archive.
func (a *Archive) NumLines() int { return a.numLines }

// RawBytes returns the total raw size of the readable blocks.
func (a *Archive) RawBytes() int { return a.rawBytes }

// Damage returns the line ranges lost to structural damage found at Open:
// damaged frame headers, truncation, or a missing terminator. Blocks whose
// payload checksums fail are not listed here — payloads are verified
// lazily and surface through Result.Damaged, Entry errors, or Verify.
func (a *Archive) Damage() []BlockError {
	out := make([]BlockError, len(a.damage))
	copy(out, a.damage)
	return out
}

// Result is an archive query result with global line numbers.
type Result struct {
	Lines   []int
	Entries []string
	// Damaged lists blocks and line ranges that could not be searched;
	// Lines/Entries are complete for every range not listed here. Empty on
	// a healthy archive.
	Damaged []BlockError
	// Partial marks a result cut short by an exhausted query budget:
	// every returned entry is a verified exact match, but blocks past the
	// cut were not searched (and a mid-block cut may omit later matches
	// within it). Distinct from Damaged — the data is fine, the query just
	// ran out of budget.
	Partial bool
	// PartialReason says which cap stopped the query.
	PartialReason string
}

// mayMatch applies the block stamp: every fragment of every search string
// in the expression must be admissible for the block to need a look. A NOT
// operand cannot prune (its entries may contain anything).
func mayMatch(e query.Expr, st rtpattern.Stamp) bool {
	switch x := e.(type) {
	case *query.And:
		return mayMatch(x.L, st) && mayMatch(x.R, st)
	case *query.Or:
		return mayMatch(x.L, st) || mayMatch(x.R, st)
	case *query.Not:
		return true
	case *query.Search:
		for _, frag := range x.Fragments {
			if !st.Admits(frag) {
				return false
			}
		}
		return true
	}
	return true
}

// Query runs a command over all blocks, parallel across workers, and
// merges results in global line order. Damaged blocks do not fail the
// query: their line ranges are reported in Result.Damaged and every other
// block's matches are returned. Only an unparsable command is an error.
func (a *Archive) Query(command string, workers int) (*Result, error) {
	return a.queryTraced(context.Background(), command, workers, nil, nil)
}

// QueryContext runs a command like Query under a context and a work
// budget. Cancellation or deadline expiry aborts the query and returns the
// context's error. The budget state (nil = unlimited) is shared across all
// blocks — and across archives, when the caller passes the same state to
// each; when it runs out the query returns what the searched blocks
// matched with Result.Partial set — a degraded answer, not an error.
func (a *Archive) QueryContext(ctx context.Context, command string, workers int, bs *core.BudgetState) (*Result, error) {
	return a.queryTraced(ctx, command, workers, bs, nil)
}

// QueryTraced runs a command like Query and additionally records a trace:
// one span per searched block (attrs: block ordinal, matches, payloads
// decompressed) plus trace-level totals for blocks searched, skipped by
// block stamps, and damaged. Block spans are appended as blocks finish, so
// their order varies across runs; counter totals are deterministic.
func (a *Archive) QueryTraced(command string, workers int) (*Result, *obsv.Trace, error) {
	return a.QueryTracedContext(context.Background(), command, workers, nil)
}

// QueryTracedContext is QueryContext with a trace, see QueryTraced.
func (a *Archive) QueryTracedContext(ctx context.Context, command string, workers int, bs *core.BudgetState) (*Result, *obsv.Trace, error) {
	tr := obsv.NewTrace("archive-query")
	res, err := a.queryTraced(ctx, command, workers, bs, tr)
	return res, tr, err
}

func (a *Archive) queryTraced(ctx context.Context, command string, workers int, bs *core.BudgetState, tr *obsv.Trace) (*Result, error) {
	t0 := time.Now()
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mArchiveQueries.Inc()
	hook := a.hook()
	// Compile the query against the block-skipping index; a nil plan means
	// full scan (index absent, damaged, disabled, or the query has no
	// token-filterable fragment) — never wrong, only slower.
	var plan *blockindex.Plan
	if !a.indexDisabled.Load() {
		if p := a.index.NewPlan(expr); p.Filterable {
			plan = p
		}
	}
	if plan == nil {
		mArchiveIndexUnusable.Inc()
	}
	// Live-ops progress: the block plan is the denominator; workers bump
	// searched/skipped as they go and the core engine publishes scan
	// bytes through the same context. All calls are nil-safe no-ops for
	// unregistered queries.
	prog := liveops.ProgressFrom(ctx)
	prog.SetBlocksTotal(int64(len(a.blocks)))
	prog.SetStage(liveops.StageFilter)
	var skipped, searched, skippedPost, skippedBloom atomic.Int64
	type blockRes struct {
		idx int
		res *core.Result
		err error
	}
	var (
		wg   sync.WaitGroup
		work = make(chan int)
		out  = make(chan blockRes, len(a.blocks))
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				// A cancelled or out-of-budget query drains the remaining
				// work without touching further blocks; the dispatcher
				// stops feeding, this stops in-flight backlog.
				if ctx.Err() != nil || bs.Err() != nil {
					continue
				}
				b := a.blocks[idx]
				if plan != nil {
					// Postings then blooms, before the stamp and long before
					// any capsule decompression.
					switch plan.Admits(uint64(b.lineOff), b.meta.numLines) {
					case blockindex.SkipPostings:
						a.indexSkippedPostings.Add(1)
						mArchiveIndexSkippedPostings.Inc()
						skippedPost.Add(1)
						prog.AddBlocksSkipped(1)
						continue
					case blockindex.SkipBlooms:
						a.indexSkippedBlooms.Add(1)
						mArchiveIndexSkippedBlooms.Inc()
						skippedBloom.Add(1)
						prog.AddBlocksSkipped(1)
						continue
					}
					mArchiveIndexAdmitted.Inc()
				}
				if !mayMatch(expr, b.meta.stamp) {
					a.blocksSkipped.Add(1)
					mArchiveBlocksSkipped.Inc()
					skipped.Add(1)
					prog.AddBlocksSkipped(1)
					continue
				}
				searched.Add(1)
				mArchiveBlocksSearched.Inc()
				prog.AddBlocksSearched(1)
				span := tr.StartSpan("block").Attr("block", int64(idx))
				tb := time.Now()
				st, err := b.openStore(ctx, hook)
				if err != nil {
					if core.IsInterrupt(err) {
						// Not damage: the open was interrupted, the block is
						// (as far as anyone knows) healthy. ctx.Err() after
						// the join reports the cancellation; a budget stop
						// surfaces as Partial.
						span.Attr("interrupted", 1).End()
						continue
					}
					span.Attr("damaged", 1).End()
					out <- blockRes{idx: idx, err: err}
					continue
				}
				var (
					res *core.Result
					btr *obsv.Trace
				)
				if tr != nil {
					// Traced archive queries trace each block too, so the
					// engine's scan and stamp counters survive onto the
					// block span (and into wide events built from it).
					res, btr, err = st.QueryTracedContext(ctx, command, bs)
				} else {
					res, err = st.QueryContext(ctx, command, bs)
				}
				mArchiveBlockNS.Observe(time.Since(tb).Nanoseconds())
				switch {
				case err == nil:
					if plan != nil && len(res.Lines) == 0 {
						// The index admitted a block with no match — an upper
						// bound on its false-positive rate (the block may have
						// been admitted for sound reasons, e.g. a NOT branch).
						mArchiveIndexFalseAdmit.Inc()
					}
					span.Attr("matches", int64(len(res.Lines))).
						Attr("decompressions", int64(res.Decompressions))
					liftEngineAttrs(span, btr)
					if res.Partial {
						span.Attr("partial", 1)
					}
					span.End()
					out <- blockRes{idx: idx, res: res}
				case core.IsInterrupt(err):
					span.Attr("interrupted", 1).End()
				default:
					span.Attr("damaged", 1).End()
					out <- blockRes{idx: idx, err: err}
				}
			}
		}()
	}
	for idx := range a.blocks {
		if ctx.Err() != nil || bs.Err() != nil {
			break
		}
		work <- idx
	}
	close(work)
	wg.Wait()
	close(out)

	if err := ctx.Err(); err != nil {
		mArchiveQueriesCancelled.Inc()
		return nil, err
	}

	res := &Result{Damaged: a.Damage()}
	byBlock := make([]*core.Result, len(a.blocks))
	for r := range out {
		if r.err != nil {
			res.Damaged = append(res.Damaged, *a.blocks[r.idx].asBlockError(r.err))
			continue
		}
		byBlock[r.idx] = r.res
	}

	for idx, br := range byBlock {
		if br == nil {
			continue
		}
		if br.Partial {
			res.Partial = true
			if res.PartialReason == "" {
				res.PartialReason = br.PartialReason
			}
		}
		off := a.blocks[idx].lineOff
		for i, line := range br.Lines {
			res.Lines = append(res.Lines, off+line)
			res.Entries = append(res.Entries, br.Entries[i])
		}
	}
	if err := bs.Err(); err != nil {
		res.Partial = true
		res.PartialReason = err.Error()
	}
	if res.Partial {
		mArchiveQueryPartial.Inc()
	}
	sort.SliceStable(res.Damaged, func(i, j int) bool { return res.Damaged[i].FirstLine < res.Damaged[j].FirstLine })
	tr.Attr("blocks", int64(len(a.blocks)))
	tr.Attr("blocks_searched", searched.Load())
	tr.Attr("blocks_skipped", skipped.Load())
	tr.Attr("blocks_skipped_postings", skippedPost.Load())
	tr.Attr("blocks_skipped_blooms", skippedBloom.Load())
	tr.Attr("damaged_regions", int64(len(res.Damaged)))
	tr.Attr("matches", int64(len(res.Lines)))
	if res.Partial {
		tr.Attr("partial", 1)
	}
	mArchiveQueryNS.Observe(time.Since(t0).Nanoseconds())
	return res, nil
}

// liftEngineAttrs sums the engine work counters from a block's inner query
// trace onto the archive-level block span, in a fixed key order so traced
// archive output stays deterministic.
func liftEngineAttrs(span *obsv.SpanCursor, btr *obsv.Trace) {
	if btr == nil {
		return
	}
	sums := map[string]int64{}
	for _, sp := range btr.Data().Spans {
		for _, a := range sp.Attrs {
			sums[a.Key] += a.Val
		}
	}
	for _, k := range []string{"stamp_admits", "stamp_skips", "capsule_scans", "scan_cache_hits", "bytes_scanned"} {
		if v, ok := sums[k]; ok {
			span.Attr(k, v)
		}
	}
}

// asBlockError normalizes a block failure: openStore already returns
// *BlockError; anything else (a query-time decode fault) gets wrapped.
func (b *block) asBlockError(err error) *BlockError {
	if be, ok := err.(*BlockError); ok {
		return be
	}
	return b.fail(err)
}

// Entry reconstructs one entry by its global line number. A line lost to
// damage returns a *BlockError describing the affected range.
func (a *Archive) Entry(line int) (string, error) {
	if line < 0 || line >= a.numLines {
		return "", fmt.Errorf("archive: line %d out of range", line)
	}
	for _, b := range a.blocks {
		if line >= b.lineOff && line < b.lineOff+b.meta.numLines {
			st, err := b.openStore(context.Background(), a.hook())
			if err != nil {
				return "", err
			}
			return st.ReconstructLine(line - b.lineOff)
		}
	}
	for i := range a.damage {
		d := a.damage[i]
		if d.NumLines > 0 && line >= d.FirstLine && line < d.FirstLine+d.NumLines {
			return "", &d
		}
	}
	return "", &BlockError{FirstLine: line, NumLines: 1, Err: fmt.Errorf("%w: line lost to frame damage", ErrCorrupt)}
}

// ReconstructAll restores the entire raw stream, block by block. It is
// strict: any damage — structural or payload — fails it. Use
// ReconstructPartial to salvage what survives.
func (a *Archive) ReconstructAll() ([]string, error) {
	if len(a.damage) > 0 {
		d := a.damage[0]
		return nil, &d
	}
	out := make([]string, 0, a.numLines)
	for _, b := range a.blocks {
		st, err := b.openStore(context.Background(), a.hook())
		if err != nil {
			return nil, err
		}
		lines, err := st.ReconstructAll()
		if err != nil {
			return nil, b.asBlockError(err)
		}
		out = append(out, lines...)
	}
	return out, nil
}

// ReconstructPartial restores every line that survives, in global line
// order, and reports the unrecoverable ranges. len(lines) equals NumLines
// minus the damaged lines; each BlockError gives the FirstLine/NumLines of
// a hole, so callers can reconstruct exact positions.
func (a *Archive) ReconstructPartial() (lines []string, damaged []BlockError) {
	damaged = a.Damage()
	for _, b := range a.blocks {
		st, err := b.openStore(context.Background(), a.hook())
		if err != nil {
			damaged = append(damaged, *b.asBlockError(err))
			continue
		}
		got, err := st.ReconstructAll()
		if err != nil {
			damaged = append(damaged, *b.asBlockError(err))
			continue
		}
		lines = append(lines, got...)
	}
	sort.SliceStable(damaged, func(i, j int) bool { return damaged[i].FirstLine < damaged[j].FirstLine })
	return lines, damaged
}

// Verify checks the archive's integrity and returns every damaged region
// (nil when pristine). It always verifies structure and payload checksums
// plus metadata decode; deep additionally reconstructs every block's lines,
// exercising the full decode path the way a restore would.
func (a *Archive) Verify(deep bool) []BlockError {
	damaged := a.Damage()
	for _, b := range a.blocks {
		st, err := b.openStore(context.Background(), a.hook())
		if err != nil {
			damaged = append(damaged, *b.asBlockError(err))
			continue
		}
		if deep {
			if _, err := st.ReconstructAll(); err != nil {
				damaged = append(damaged, *b.asBlockError(err))
			}
		}
	}
	sort.SliceStable(damaged, func(i, j int) bool { return damaged[i].FirstLine < damaged[j].FirstLine })
	if len(damaged) == 0 {
		return nil
	}
	return damaged
}
