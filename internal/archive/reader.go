package archive

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
	lineOff  int    // global line number of the block's first line
	crc      uint32 // expected payload CRC32C
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
		start := time.Now()
		if crc32.Checksum(b.box, castagnoli) != b.crc {
			b.storeErr = b.fail(ErrChecksum)
		} else if st, err := core.Open(b.box, core.QueryOptions{ReadHook: hook}); err != nil {
			b.storeErr = b.fail(err)
		} else {
			b.store = st
		}
		mArchiveBlockOpenNS.Observe(time.Since(start).Nanoseconds())
	}
	return b.store, b.storeErr
}

// Archive is an opened multi-block archive. It is safe for concurrent
// use: block stores synchronize internally.
type Archive struct {
	format   string
	blocks   []*block
	damage   []BlockError // line ranges lost to structural damage, by FirstLine
	numLines int
	rawBytes int

	// index is the block-skipping index decoded from the sections after
	// the terminator; nil or empty when the archive has none (an older
	// writer, a damaged or cut tail, a bare box).
	index *blockindex.Index
	bare  *core.Store // the one block's store, for a bare CapsuleBox

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

// Open parses an archive produced by Writer/Compress, or a bare CapsuleBox,
// which it serves as a one-block archive.
//
// Every frame header is checksum-verified up front; frames with damaged
// headers are skipped by re-synchronizing on the next valid header, and
// the lost line ranges are recorded (see Damage) rather than failing the
// open. Payload checksums are deferred to first use. Open itself only
// fails when the data is not an archive at all, or is one in a retired
// format (ErrOldFormat).
func Open(data []byte) (*Archive, error) {
	if hasMagic(data, Magic) {
		return openV2(data)
	}
	if err := capsule.CheckPrefix(data); err == nil {
		return openBox(data)
	} else if errors.Is(err, ErrOldFormat) {
		return nil, err
	}
	return nil, checkMagic(data)
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
	return &Archive{format: "box", blocks: []*block{b}, numLines: st.NumLines(), bare: st}, nil
}

// openV2 builds the archive from the v2 walk: every frame it found is a
// block, whatever it could not read is damage (finishV2), and the index
// sections past the terminator are decoded. Decoding them never fails —
// damage drops the affected section and queries scan every block.
//
// A block whose box does not begin with capsule.BoxPrefix is either damaged
// or of a retired revision, and only its payload checksum tells which: a
// payload that verifies and names a retired revision fails the open with
// ErrOldFormat; any other stays a block, whose first open reports it. So
// Open computes no checksum for a current box.
func openV2(data []byte) (*Archive, error) {
	w := walkV2(data)
	a := &Archive{format: "archive-v2"}
	termLines := -1
	for _, f := range w.frames {
		if f.terminator() {
			termLines = f.lineOff
			a.index = blockindex.DecodeSections(data[f.payloadOff:])
			break
		}
		box := data[f.payloadOff : f.payloadOff+f.boxLen]
		if err := capsule.CheckPrefix(box); errors.Is(err, ErrOldFormat) && crc32.Checksum(box, castagnoli) == f.payloadCRC {
			return nil, fmt.Errorf("archive: block at line %d: %w", f.lineOff, err)
		}
		a.blocks = append(a.blocks, &block{
			box:     box,
			meta:    f.meta,
			lineOff: f.lineOff,
			crc:     f.payloadCRC,
		})
	}
	a.finishV2(termLines, w.endLine, w.causes)
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

// Format names what Open found: "box" for a bare CapsuleBox, "archive-v2"
// for an archive.
func (a *Archive) Format() string { return a.format }

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

// Search runs a command over all blocks, o.Workers at a time on
// core.FanOut, and merges their answers in global line order
// (core.Result.Append). Damaged blocks do not fail the query: their line
// ranges are reported in Result.Damaged and every other block's matches are
// returned. Only an unparsable command, cancellation or deadline expiry is
// an error.
//
// One budget state bounds and meters the whole query (and, when the caller
// hands the same state to several archives, all of them, their block
// counts summed): each searched block runs under a child of it, and
// running out of it returns what the searched blocks matched with
// Result.Partial set; a count is summed per block. A trace is named
// "archive-query" and gets one span per searched block — its ordinal,
// matches, and its meter's reading (core.Ledger.BlockAttrs) — plus totals
// for blocks searched, skipped (per reason) and damaged.
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
	bs, tr := o.Budget, o.Trace
	tr.SetName("archive-query")
	mArchiveQueries.Inc()
	hook := a.hook()
	plan, _ := a.plan(expr)
	if plan == nil {
		mArchiveIndexUnusable.Inc()
	}
	// The meter counts this archive's blocks into the query's total; each
	// block is counted searched or skipped as it is decided.
	bs.AddBlocks(int64(len(a.blocks)), 0, 0)
	bs.SetStage(core.StageFilter)
	var verdicts [numVerdicts]atomic.Int64
	// search is one block's unit of the fan-out: its answer in block-local
	// lines, nil when it has none — skipped, or interrupted, which ctx.Err()
	// and the meter report once every block is done.
	search := func(b *block) *Result {
		if ctx.Err() != nil || bs.Err() != nil {
			return nil
		}
		v := admit(plan, expr, b)
		verdicts[v].Add(1)
		if plan != nil && (v == searchBlock || v == skipStamp) {
			mArchiveIndexAdmitted.Inc()
		}
		if v != searchBlock {
			skipCounters[v].Inc()
			bs.AddBlocks(0, 0, 1)
			return nil
		}
		mArchiveBlocksSearched.Inc()
		bs.AddBlocks(0, 1, 0)
		span := tr.StartSpan("block").Attr("block", int64(b.idx))
		tb := time.Now()
		st, err := b.openStore(ctx, hook)
		if err != nil {
			if core.IsInterrupt(err) {
				// Not damage: the open was interrupted, the block is (as
				// far as anyone knows) healthy.
				span.Attr("interrupted", 1).End()
				return nil
			}
			span.Attr("damaged", 1).End()
			return b.damaged(err)
		}
		// The block searches under a meter of its own: its span reads it,
		// and closing it folds the block into the query's.
		bm := bs.Child()
		res, err := st.Search(ctx, command, core.SearchOpts{Budget: bm, CountOnly: o.CountOnly})
		spent := bm.Close()
		mArchiveBlockNS.Observe(time.Since(tb).Nanoseconds())
		switch {
		case err == nil:
			if plan != nil && res.Matches == 0 {
				// The index admitted a block with no match — an upper
				// bound on its false-positive rate (the block may have
				// been admitted for sound reasons, e.g. a NOT branch).
				mArchiveIndexFalseAdmit.Inc()
			}
			span.Attr("matches", int64(res.Matches))
			if res.Partial {
				span.Attr("partial", 1)
			}
		case core.IsInterrupt(err):
			span.Attr("interrupted", 1)
		default:
			span.Attr("damaged", 1)
			res = b.damaged(err)
			res.Decompressions = int(spent.Decompressions)
		}
		spent.BlockAttrs(span).End()
		return res
	}
	parts := make([]*Result, len(a.blocks))
	core.FanOut(o.Workers, len(a.blocks), func(i int) { parts[i] = search(a.blocks[i]) })
	if err := ctx.Err(); err != nil {
		mArchiveQueriesCancelled.Inc()
		return nil, err
	}

	res := &Result{Damaged: a.Damage()}
	for i, p := range parts {
		res.Append(p, a.blocks[i].lineOff)
	}
	res.Settle(bs)
	if res.Partial {
		mArchiveQueryPartial.Inc()
	}
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

// plan compiles expr against the block-skipping index. It returns the plan,
// nil when the index cannot filter the query (absent or damaged, or the
// query has no token-filterable fragment: every block is scanned, never
// wrong, only slower), and the index state Explain reports.
func (a *Archive) plan(expr query.Expr) (*blockindex.Plan, string) {
	if a.index.Empty() {
		return nil, "absent"
	}
	p := a.index.NewPlan(expr)
	switch {
	case !p.Filterable:
		return nil, "not-filterable"
	case p.UsedPostings && p.UsedBlooms:
		return p, "postings+blooms"
	case p.UsedPostings:
		return p, "postings"
	}
	return p, "blooms"
}

// asBlockError normalizes a block failure: openStore already returns
// *BlockError; anything else (a query-time decode fault) gets wrapped.
func (b *block) asBlockError(err error) *BlockError {
	if be, ok := err.(*BlockError); ok {
		return be
	}
	return b.fail(err)
}

// damaged is the answer of a block that could not be searched: its whole
// line range, numbered from the block's first line like every block answer.
func (b *block) damaged(err error) *Result {
	d := *b.asBlockError(err)
	d.FirstLine -= b.lineOff
	return &Result{Damaged: []BlockError{d}}
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
	if d := a.walk(true, func(st *core.Store) error {
		lines, err := st.ReconstructAll()
		out = append(out, lines...)
		return err
	}); len(d) > 0 {
		return nil, &d[0]
	}
	return out, nil
}

// ReconstructPartial restores every line that survives, in global line
// order, and reports the unrecoverable ranges. len(lines) equals NumLines
// minus the damaged lines; each BlockError gives the FirstLine/NumLines of
// a hole, so callers can reconstruct exact positions.
func (a *Archive) ReconstructPartial() (lines []string, damaged []BlockError) {
	damaged = a.walk(false, func(st *core.Store) error {
		got, err := st.ReconstructAll()
		if err == nil {
			lines = append(lines, got...)
		}
		return err
	})
	return lines, damaged
}

// Restore writes every line the archive can restore to w, in line order,
// each ending in '\n', and returns the damaged regions it left out, as
// ReconstructPartial does. It restores one block at a time into one reused
// buffer and releases each block's decoded payloads before the next, so
// its memory follows the block, not the archive.
//
// strict fails it on any damage instead, with the first damaged region, as
// ReconstructAll does. Every block is opened — checksum and metadata — before
// a byte is written, so damage found there leaves w untouched; only a fault
// that restoring itself finds (a payload whose checksum holds but that does
// not decode) can stop the output part way. A write error ends it at once.
func (a *Archive) Restore(w io.Writer, strict bool) ([]BlockError, error) {
	if strict {
		if len(a.damage) > 0 {
			d := a.damage[0]
			return nil, &d
		}
		if d := a.walk(true, nil); len(d) > 0 {
			return nil, &d[0]
		}
	}
	var buf []byte
	var werr error
	damaged := a.walk(strict, func(st *core.Store) (err error) {
		if buf, err = restoreBlock(st, buf); err != nil {
			return err
		}
		if _, werr = w.Write(buf); werr != nil {
			return errStopWalk
		}
		return nil
	})
	switch {
	case werr != nil:
		return nil, werr
	case len(damaged) == 0:
		return nil, nil
	case strict:
		return nil, &damaged[0]
	}
	return damaged, nil
}

// restoreBlock sets buf to st's whole block and then drops the payloads the
// restore decoded.
func restoreBlock(st *core.Store, buf []byte) ([]byte, error) {
	buf, err := st.AppendAll(buf[:0])
	st.ResetCounters()
	return buf, err
}

// Verify checks the archive's integrity and returns every damaged region
// (nil when pristine). It always verifies structure and payload checksums
// plus metadata decode; deep additionally restores every block, one at a
// time as Restore does, exercising the full decode path.
func (a *Archive) Verify(deep bool) []BlockError {
	var visit func(*core.Store) error
	if deep {
		var buf []byte
		visit = func(st *core.Store) (err error) {
			buf, err = restoreBlock(st, buf)
			return err
		}
	}
	if d := a.walk(false, visit); len(d) > 0 {
		return d
	}
	return nil
}

// errStopWalk, returned by a walk's visit, ends the walk there without
// marking the block damaged.
var errStopWalk = errors.New("archive: walk stopped")

// walk is the one block-by-block pass over the archive: it opens each
// readable block in line order (payload checksum and metadata decode) and
// hands its store to visit, when visit is non-nil. It returns the
// archive's damage in line order: the structural damage found at Open and
// every block that failed to open or to visit — only the first such block
// when strict.
func (a *Archive) walk(strict bool, visit func(*core.Store) error) []BlockError {
	damaged := a.Damage()
	for _, b := range a.blocks {
		st, err := b.openStore(context.Background(), a.hook())
		if err == nil && visit != nil {
			err = visit(st)
		}
		if err == errStopWalk {
			break
		}
		if err != nil {
			damaged = append(damaged, *b.asBlockError(err))
			if strict {
				break
			}
		}
	}
	sort.SliceStable(damaged, func(i, j int) bool { return damaged[i].FirstLine < damaged[j].FirstLine })
	return damaged
}
