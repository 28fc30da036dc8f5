package archive

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/blockindex"
	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
	"loggrep/internal/rtpattern"
)

// BlockError lives in core, beside the Result that carries it.
type BlockError = core.BlockError

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

	// index is the block-skipping index decoded from the sections after
	// the terminator; nil or empty when the archive has none (old writer,
	// -no-index, damage, a bare box). indexDisabled turns it off at query
	// time.
	index         *blockindex.Index
	indexDisabled atomic.Bool
	bare          *core.Store // the one block's store, for a bare CapsuleBox

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

// Open parses an archive produced by Writer/Compress, either format, or a
// bare CapsuleBox, which it serves as a one-block archive.
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
	case capsule.IsBox(data):
		return openBox(data)
	}
	return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
}

// openBox wraps a bare CapsuleBox as an archive of one block with no
// checksum, no index and a block stamp that admits every query. With no frame
// to quarantine damage around, a box core.Open rejects fails the open.
func openBox(data []byte) (*Archive, error) {
	st, err := core.Open(data, core.QueryOptions{})
	if err != nil {
		return nil, err
	}
	admitAll := rtpattern.Stamp{TypeMask: 0xff, MaxLen: math.MaxInt}
	b := &block{box: data, store: st, meta: blockMeta{numLines: st.NumLines(), stamp: admitAll}}
	return &Archive{blocks: []*block{b}, numLines: st.NumLines(), bare: st}, nil
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

// Result is an archive query result: core.Result with global line numbers.
type Result = core.Result

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

// verdict is what the admission funnel decided for one block.
type verdict int

const (
	searchBlock verdict = iota
	skipPostings
	skipBlooms
	skipStamp
	numVerdicts
)

// skipCounters are the process-wide counters behind the skip verdicts.
var skipCounters = [numVerdicts]*obsv.Counter{
	skipPostings: mArchiveSkippedPostings,
	skipBlooms:   mArchiveSkippedBlooms,
	skipStamp:    mArchiveBlocksSkipped,
}

// admit is the funnel every block passes before it is opened: the index's
// postings, then its blooms (a nil plan means no usable index), then the
// block stamp — all long before any capsule decompression. Search and Explain
// both decide through it, so an explanation reports the pruning a query gets.
func admit(plan *blockindex.Plan, expr query.Expr, b *block) verdict {
	if plan != nil {
		switch plan.Admits(uint64(b.lineOff), b.meta.numLines) {
		case blockindex.SkipPostings:
			return skipPostings
		case blockindex.SkipBlooms:
			return skipBlooms
		}
	}
	if !mayMatch(expr, b.meta.stamp) {
		return skipStamp
	}
	return searchBlock
}

// Query and QueryTraced are Search under its two former spellings, kept
// solely because bench/ calls them and this PR may not edit bench/. ROADMAP
// item 1's benchmark PR moves bench/ to Search and deletes both.
func (a *Archive) Query(command string, workers int) (*Result, error) {
	return a.Search(context.Background(), command, core.SearchOpts{Workers: workers})
}

// QueryTraced: see Query.
func (a *Archive) QueryTraced(command string, workers int) (*Result, *obsv.Trace, error) {
	tr := obsv.NewTrace("archive-query")
	res, err := a.Search(context.Background(), command, core.SearchOpts{Workers: workers, Trace: tr})
	return res, tr, err
}

// Search runs a command over all blocks, o.Workers at a time, and merges
// results in global line order. Damaged blocks do not fail the query: their
// line ranges are reported in Result.Damaged and every other block's
// matches are returned. Only an unparsable command, cancellation or
// deadline expiry is an error.
//
// The options reach every block unchanged: one budget state bounds and
// meters the whole query (and, when the caller hands the same state to
// several archives, all of them, their block counts summed) and running
// out of it returns what the searched blocks matched with Result.Partial
// set; a count is summed per block. A trace is named "archive-query" and
// gets one span per searched block (attrs: block ordinal, matches,
// payloads decompressed, the engine's scan and stamp counters) plus
// totals for blocks searched, skipped and damaged.
// The totals are added to what the trace already holds, so a caller
// searching several archives under one trace reads sums. Block spans are
// appended as blocks finish, so their order varies across runs; counter
// totals are deterministic.
//
// A bare CapsuleBox has no frame, index or stamp to decide anything before
// its one block: that Store's Search answers, trace and metrics included.
func (a *Archive) Search(ctx context.Context, command string, o core.SearchOpts) (*Result, error) {
	if a.bare != nil {
		return a.bare.Search(ctx, command, o)
	}
	t0 := time.Now()
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	workers, bs, tr := o.Workers, o.Budget, o.Trace
	tr.SetName("archive-query")
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
	// The meter counts this archive's blocks into the query's total;
	// workers count each block searched or skipped as they decide it.
	bs.AddBlocks(int64(len(a.blocks)), 0, 0)
	bs.SetStage(core.StageFilter)
	var verdicts [numVerdicts]atomic.Int64
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
				v := admit(plan, expr, b)
				verdicts[v].Add(1)
				if plan != nil && (v == searchBlock || v == skipStamp) {
					mArchiveIndexAdmitted.Inc()
				}
				if v != searchBlock {
					skipCounters[v].Inc()
					bs.AddBlocks(0, 0, 1)
					continue
				}
				mArchiveBlocksSearched.Inc()
				bs.AddBlocks(0, 1, 0)
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
				// A traced archive query traces each block on a trace of its
				// own, so the engine's scan and stamp counters survive onto
				// the block span (and into wide events built from it).
				bo := o
				if tr != nil {
					bo.Trace = obsv.NewTrace("query")
				}
				res, err := st.Search(ctx, command, bo)
				mArchiveBlockNS.Observe(time.Since(tb).Nanoseconds())
				switch {
				case err == nil:
					if plan != nil && res.Matches == 0 {
						// The index admitted a block with no match — an upper
						// bound on its false-positive rate (the block may have
						// been admitted for sound reasons, e.g. a NOT branch).
						mArchiveIndexFalseAdmit.Inc()
					}
					span.Attr("matches", int64(res.Matches)).
						Attr("decompressions", int64(res.Decompressions))
					liftEngineAttrs(span, bo.Trace)
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
		res.Matches += br.Matches
		res.Decompressions += br.Decompressions
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
	tr.AddAttr("blocks", int64(len(a.blocks)))
	tr.AddAttr("blocks_searched", verdicts[searchBlock].Load())
	tr.AddAttr("blocks_skipped", verdicts[skipStamp].Load())
	tr.AddAttr("blocks_skipped_postings", verdicts[skipPostings].Load())
	tr.AddAttr("blocks_skipped_blooms", verdicts[skipBlooms].Load())
	tr.AddAttr("damaged_regions", int64(len(res.Damaged)))
	tr.AddAttr("matches", int64(res.Matches))
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
// damage returns a *BlockError describing the affected range; a cancelled
// context returns its error and latches nothing.
func (a *Archive) Entry(ctx context.Context, line int) (string, error) {
	if line < 0 || line >= a.numLines {
		return "", fmt.Errorf("archive: line %d out of range", line)
	}
	for _, b := range a.blocks {
		if line >= b.lineOff && line < b.lineOff+b.meta.numLines {
			st, err := b.openStore(ctx, a.hook())
			if err != nil {
				return "", err
			}
			return st.ReconstructLine(ctx, line-b.lineOff)
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
