package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"loggrep/internal/bitset"
	"loggrep/internal/capsule"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
	"loggrep/internal/strmatch"
)

// QueryOptions tune the query side of a Store.
type QueryOptions struct {
	// DisableCache turns the Query Cache off ("w/o cache").
	DisableCache bool
	// ReadHook, when set, gates every capsule payload fetch (latency and
	// fault injection; see ReadHook).
	ReadHook ReadHook
}

// Store is an opened CapsuleBox ready to answer grep-like queries.
//
// A Store is safe for concurrent use: cached query results are served
// under a read lock so hot queries stay concurrent, while the uncached
// execution path — which mutates the scan caches and counters — is
// serialized per store. Archive queries parallelize across blocks, so
// per-store serialization does not limit cross-block parallelism.
type Store struct {
	box            *capsule.Box
	en             engine
	padding        bool
	cacheOn        bool
	groups         []*qGroup
	cols           []column   // the column table, by capsule id (made on first use)
	plans          []*rowPlan // each group's row plan, made and dropped with cols
	chunkSearchers map[[2]int]searcher
	findCache      map[findKey]bitset.View
	size           int
	readHook       ReadHook
	// lineIndex inverts the line maps (block line → group row). Queries
	// never need it; lineRefs builds it for the by-line-number entry points.
	lineIndex    []lineRef
	lineIndexErr error
	// ex, non-nil only while Explain holds mu, records the filter funnel.
	ex *explainRec
	// scratch is the row buffer of ReconstructLine and verify.
	scratch []byte

	// mu serializes every path that touches the mutable state above
	// (cols, findCache, the box payload caches, the running search's
	// meter in en, the holes' lazily built state): uncached queries,
	// reconstruction and Explain.
	mu sync.Mutex
	// ctx is the running query's (or reconstruction's) context; non-nil
	// only while one holds mu.
	ctx context.Context

	// cacheMu guards the Query Cache independently of mu so cache hits
	// never wait behind a running query.
	cacheMu sync.RWMutex
	qcache  map[string]*Result
}

// findKey keys the per-store cache of capsule scan results.
type findKey struct {
	id   int
	kind strmatch.Kind
	part string
}

// lineRef locates a block line inside the structurized layout.
type lineRef struct {
	group int // group index, or -1 for a block-level outlier line
	row   int // row within the group / rank within the outlier capsule
}

type qGroup struct {
	meta *capsule.GroupMeta
	seq  []seqElem
	n    int
}

// Result is the answer to one query, in the one shape every source —
// a Store, an archive.Archive, an ingest.Stream — returns.
type Result struct {
	// Matches is the number of matching entries: len(Lines), or the whole
	// answer of a SearchOpts.CountOnly query.
	Matches int
	// Lines are the matching line numbers, ascending (block-local for a
	// Store, global for an archive or stream); Entries their reconstructed
	// text. Both are nil for a CountOnly query.
	Lines   []int
	Entries []string
	// Decompressions is how many Capsule payloads were decompressed to
	// answer this query (0 when served from the Query Cache).
	Decompressions int
	// Damaged lists blocks and line ranges that could not be searched, in
	// line order; the answer is complete for every range not listed here.
	// Always empty for a Store, and for a healthy archive. An archive's or
	// stream's result is the Append of its parts', so it lists every part's
	// damage, shifted to its own line numbers.
	Damaged []BlockError
	// Partial marks a result cut short — by an exhausted query budget or,
	// on a stream, by storage damage. Every returned entry is still a
	// verified, exact match; only later matches may be missing. (Damaged
	// alone is not Partial on an archive: it answers in full for the rest.)
	// A merged result is Partial when any part is or the query's budget is
	// spent. Partial results are never cached.
	Partial bool
	// PartialReason says what stopped the query (empty when Partial is
	// false). One rule names it, in order of precedence: a spent query
	// budget (Settle); otherwise the first part's reason in line order
	// (Append); otherwise, on a stream with shed or damaged regions,
	// "storage".
	PartialReason string
}

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

// SearchOpts are the per-call choices of a Search, the same at every level:
// an archive passes them to each block it searches, a stream to each sealed
// segment it searches (with Workers set to 1).
type SearchOpts struct {
	// Budget meters and caps the query's work; nil means unlimited and
	// unmetered. One state bounds the whole query however many blocks (or
	// archives) it is handed to.
	// An exhausted budget is not an error: the matches verified so far
	// come back with Result.Partial set.
	Budget *BudgetState
	// Trace, when set, receives the query's spans and counters: per phase
	// (parse, filter, verify) from a Store, per searched block from an
	// archive; Search names the trace after which it was. The counter
	// attributes are deterministic for a given source and command; durations
	// are wall-clock. Nil records nothing and costs nothing.
	Trace *obsv.Trace
	// Workers bounds how many blocks an archive searches at once, and how
	// many segments a stream searches at once — each segment's blocks then
	// one at a time (0 = GOMAXPROCS; see FanOut). Workers 1 runs every
	// block on the calling goroutine. A Store is one block and ignores it.
	Workers int
	// CountOnly asks for grep -c: Result.Matches alone, no Lines or
	// Entries. When every search string filters exactly the count is pure
	// bitset algebra and no entry is reconstructed (see allExactLeaves);
	// otherwise it verifies, and fills the Query Cache, as a query does.
	CountOnly bool
}

// Open parses a CapsuleBox produced by Compress. It validates the directory
// — capsule references, row counts that agree with each other and add up
// to the block's line count — and decodes no line map: a map is validated
// when a query first needs it (capsule.LineMap.Lines), and that every line
// is mapped exactly once when the by-line index is built (lineRefs).
func Open(data []byte, opts QueryOptions) (*Store, error) {
	box, err := capsule.ReadBox(data)
	if err != nil {
		return nil, err
	}
	st := &Store{
		box:            box,
		en:             engine{stamps: box.Meta.Flags&capsule.FlagNoStamps == 0},
		padding:        box.Meta.Flags&capsule.FlagNoPadding == 0,
		cacheOn:        !opts.DisableCache,
		chunkSearchers: make(map[[2]int]searcher),
		findCache:      make(map[findKey]bitset.View),
		qcache:         make(map[string]*Result),
		size:           len(data),
		readHook:       opts.ReadHook,
	}
	mapped := box.Meta.OutlierLines.Rows()
	for gi := range box.Meta.Groups {
		g := &box.Meta.Groups[gi]
		qg := &qGroup{meta: g, n: g.Rows()}
		mapped += qg.n
		for _, te := range g.Template {
			if te.Var < 0 {
				qg.seq = append(qg.seq, seqElem{lit: te.Lit})
				continue
			}
			if te.Var >= len(g.Vars) {
				return nil, fmt.Errorf("%w: template references variable %d of %d", capsule.ErrCorrupt, te.Var, len(g.Vars))
			}
			vm := &g.Vars[te.Var]
			var h hole
			switch vm.Kind {
			case capsule.RealVar:
				if err := st.checkRealVar(vm, qg.n); err != nil {
					return nil, err
				}
				h = newRealVarHole(st, vm, qg.n)
			case capsule.NominalVar:
				if err := st.checkNominalVar(vm, qg.n); err != nil {
					return nil, err
				}
				h = &nominalVarHole{st: st, vm: vm, n: qg.n}
			default:
				return nil, fmt.Errorf("%w: unknown variable kind", capsule.ErrCorrupt)
			}
			qg.seq = append(qg.seq, seqElem{h: h})
		}
		st.groups = append(st.groups, qg)
	}
	if oc := box.Meta.OutlierCapID; oc >= 0 {
		if oc >= len(box.Meta.Capsules) {
			return nil, fmt.Errorf("%w: outlier capsule id %d out of range", capsule.ErrCorrupt, oc)
		}
		if box.Meta.Capsules[oc].Rows != box.Meta.OutlierLines.Rows() {
			return nil, fmt.Errorf("%w: outlier capsule rows mismatch", capsule.ErrCorrupt)
		}
	} else if box.Meta.OutlierLines.Rows() > 0 {
		return nil, fmt.Errorf("%w: outlier lines without an outlier capsule", capsule.ErrCorrupt)
	}
	// With as many rows as lines, the per-map checks (ascending, in range)
	// and lineRefs' no-line-twice check leave no line unmapped.
	if mapped != box.Meta.NumLines {
		return nil, fmt.Errorf("%w: %d rows mapped for %d lines", capsule.ErrCorrupt, mapped, box.Meta.NumLines)
	}
	return st, nil
}

// lines returns a line map's numbers, counting its first touch.
func (st *Store) lines(lm *capsule.LineMap) ([]int, error) {
	if m := st.en.meter; m != nil && lm.Pending() {
		m.own.LineMaps++
	}
	return lm.Lines()
}

// lineRefs returns the block line → (group, row) index, building it on
// first use from every line map. This is where a box proves that its maps
// cover each line exactly once.
func (st *Store) lineRefs() ([]lineRef, error) {
	if st.lineIndex != nil || st.lineIndexErr != nil {
		return st.lineIndex, st.lineIndexErr
	}
	index := make([]lineRef, st.NumLines())
	covered := make([]bool, len(index))
	add := func(m *capsule.LineMap, group int) error {
		lines, err := st.lines(m)
		if err != nil {
			return err
		}
		for row, line := range lines {
			if covered[line] {
				return fmt.Errorf("%w: line %d mapped twice", capsule.ErrCorrupt, line)
			}
			covered[line] = true
			index[line] = lineRef{group: group, row: row}
		}
		return nil
	}
	for gi, g := range st.groups {
		if st.lineIndexErr = add(&g.meta.Lines, gi); st.lineIndexErr != nil {
			return nil, st.lineIndexErr
		}
	}
	if st.lineIndexErr = add(&st.box.Meta.OutlierLines, -1); st.lineIndexErr != nil {
		return nil, st.lineIndexErr
	}
	st.lineIndex = index
	return index, nil
}

// checkRealVar validates capsule references before they are dereferenced.
func (st *Store) checkRealVar(vm *capsule.VarMeta, groupRows int) error {
	nc := len(st.box.Meta.Capsules)
	prev := -1
	for _, r := range vm.OutRows {
		if r <= prev || r >= groupRows {
			return fmt.Errorf("%w: outlier row %d out of order or range", capsule.ErrCorrupt, r)
		}
		prev = r
	}
	matched := groupRows - len(vm.OutRows)
	for _, e := range vm.Pattern {
		if e.Sub < 0 {
			continue
		}
		if e.CapID < 0 || e.CapID >= nc {
			return fmt.Errorf("%w: bad sub-variable capsule id %d", capsule.ErrCorrupt, e.CapID)
		}
		if st.box.Meta.Capsules[e.CapID].Rows != matched {
			return fmt.Errorf("%w: sub-variable capsule %d has %d rows, want %d", capsule.ErrCorrupt, e.CapID, st.box.Meta.Capsules[e.CapID].Rows, matched)
		}
	}
	if vm.OutCapID >= 0 {
		if vm.OutCapID >= nc {
			return fmt.Errorf("%w: bad outlier capsule id", capsule.ErrCorrupt)
		}
		if st.box.Meta.Capsules[vm.OutCapID].Rows != len(vm.OutRows) {
			return fmt.Errorf("%w: outlier capsule rows mismatch", capsule.ErrCorrupt)
		}
	}
	return nil
}

func (st *Store) checkNominalVar(vm *capsule.VarMeta, groupRows int) error {
	nc := len(st.box.Meta.Capsules)
	if vm.DictCapID < 0 || vm.DictCapID >= nc || vm.IndexCapID < 0 || vm.IndexCapID >= nc {
		return fmt.Errorf("%w: bad dict/index capsule id", capsule.ErrCorrupt)
	}
	if st.box.Meta.Capsules[vm.IndexCapID].Rows != groupRows {
		return fmt.Errorf("%w: index capsule rows mismatch", capsule.ErrCorrupt)
	}
	total := 0
	for _, dp := range vm.DictPatterns {
		if dp.Count < 0 || dp.MaxLen < 0 {
			return fmt.Errorf("%w: bad dict pattern", capsule.ErrCorrupt)
		}
		total += dp.Count
	}
	if total != st.box.Meta.Capsules[vm.DictCapID].Rows {
		return fmt.Errorf("%w: dict pattern counts mismatch", capsule.ErrCorrupt)
	}
	// Index entries are decimal-rendered dictionary positions; 20 digits
	// covers any int64, so a wider index is forged (and would otherwise
	// size huge per-lookup strings).
	if vm.IndexWidth < 1 || vm.IndexWidth > 20 {
		return fmt.Errorf("%w: bad index width %d", capsule.ErrCorrupt, vm.IndexWidth)
	}
	return nil
}

// column is one capsule resolved whole: the searcher scans use and its row
// count. For a padded capsule pad and width are the searcher's payload and
// value width, which the Reconstructor's row plan reads rows out of.
type column struct {
	sr    searcher // nil until the capsule is resolved
	pad   []byte
	width int // 0 unless the capsule is padded and resolved
	rows  int
	// dict is the segment table of a padded dictionary, built on its first
	// lookup.
	dict *dictTable
}

// col returns capsule id's entry in the column table, making the table on
// first use.
func (st *Store) col(id int) *column {
	if st.cols == nil {
		st.cols = make([]column, len(st.box.Meta.Capsules))
	}
	return &st.cols[id]
}

// value fetches the row-th value of a capsule: out of its column once the
// capsule is resolved. Until then, a chunked capsule decompresses only the
// chunk holding the row — the point of Options.ChunkBytes — and any other
// is resolved whole.
func (st *Store) value(id, row int) ([]byte, error) {
	c := st.col(id)
	if c.sr != nil && uint(row) < uint(c.rows) {
		return c.sr.Value(row), nil
	}
	info := &st.box.Meta.Capsules[id]
	if row < 0 || row >= info.Rows {
		return nil, fmt.Errorf("%w: row %d beyond capsule %d", capsule.ErrCorrupt, row, id)
	}
	if info.ChunkRows > 0 && st.box.ChunkCount(id) > 1 {
		if c.sr == nil {
			ci := row / info.ChunkRows
			key := [2]int{id, ci}
			sr, ok := st.chunkSearchers[key]
			if !ok {
				chunk, err := st.read(func() ([]byte, error) { return st.box.PayloadChunk(id, ci) })
				if err != nil {
					return nil, err
				}
				rowsIn := min(info.ChunkRows, info.Rows-ci*info.ChunkRows)
				if info.Width > 0 {
					sr = strmatch.NewFixedWidth(chunk, info.Width)
				} else {
					sr = strmatch.NewVarWidth(chunk, rowsIn)
				}
				if sr.Rows() != rowsIn {
					return nil, fmt.Errorf("%w: capsule %d chunk %d has %d rows, want %d", capsule.ErrCorrupt, id, ci, sr.Rows(), rowsIn)
				}
				st.chunkSearchers[key] = sr
			}
			return sr.Value(row - ci*info.ChunkRows), nil
		}
	}
	sr, err := st.searcher(id)
	if err != nil {
		return nil, err
	}
	if row >= sr.Rows() {
		return nil, fmt.Errorf("%w: row %d beyond capsule %d", capsule.ErrCorrupt, row, id)
	}
	return sr.Value(row), nil
}

// payload returns a capsule's whole decompressed bytes: from the box's
// cache, or read.
func (st *Store) payload(id int) ([]byte, error) {
	if p, cached := st.box.CacheSnapshot()[id]; cached {
		return p, nil
	}
	return st.read(func() ([]byte, error) { return st.box.Payload(id) })
}

// searcher returns a capsule's payload searcher, resolving its column on
// first use. A resolved column holds exactly the rows the directory
// promises: box.Payload checks a padded payload's size, and this a
// delimited one's value count.
func (st *Store) searcher(id int) (searcher, error) {
	c := st.col(id)
	if c.sr != nil {
		return c.sr, nil
	}
	payload, err := st.payload(id)
	if err != nil {
		return nil, err
	}
	info := st.box.Meta.Capsules[id]
	if info.Width > 0 {
		c.sr = strmatch.NewFixedWidth(payload, info.Width)
		c.pad, c.width = payload, info.Width
	} else {
		sr := strmatch.NewVarWidth(payload, info.Rows)
		if sr.Rows() != info.Rows {
			return nil, fmt.Errorf("%w: capsule %d holds %d values, want %d", capsule.ErrCorrupt, id, sr.Rows(), info.Rows)
		}
		c.sr = sr
	}
	c.rows = c.sr.Rows()
	return c.sr, nil
}

// NumLines returns the number of entries in the block.
func (st *Store) NumLines() int { return st.box.Meta.NumLines }

// CompressedSize returns the size of the CapsuleBox in bytes.
func (st *Store) CompressedSize() int { return st.size }

// SetReadHook installs (or clears, with nil) the payload read hook. It
// waits for any running query, so a hook never appears mid-query.
func (st *Store) SetReadHook(h ReadHook) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.readHook = h
}

// ResetCounters drops the decompressed payload and scan caches, modelling
// a cold query.
func (st *Store) ResetCounters() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.box.DropCache()
	st.lineIndex = nil
	st.cols, st.plans = nil, nil
	st.chunkSearchers = make(map[[2]int]searcher)
	st.findCache = make(map[findKey]bitset.View)
}

// ClearCache empties the Query Cache.
func (st *Store) ClearCache() {
	st.cacheMu.Lock()
	defer st.cacheMu.Unlock()
	st.qcache = make(map[string]*Result)
}

// Search executes a grep-like command ("error AND dst:11.8.* NOT
// state:503") and returns matching entries in block order.
//
// Evaluation has two phases. The filtering phase computes, per search
// string, a superset of matching rows using runtime-pattern matching and
// Capsule-stamp filtering (§5.1), and combines those supersets across
// AND/OR (a NOT operand contributes "all rows", keeping the union an
// over-approximation). It starts with a pass that decompresses nothing
// (narrow): the groups that pass rules out are never entered. The
// verification phase reconstructs only the surviving candidate rows and
// evaluates the exact expression on their text, so results are precisely
// what grep on the raw block would return.
// Candidates stay (group, row) pairs throughout; line numbers are looked up
// last, for the groups that produced matches.
//
// Cancellation is cooperative, checked before each capsule scan or payload
// fetch and per verified candidate, and surfaces as the context's error.
func (st *Store) Search(ctx context.Context, command string, o SearchOpts) (*Result, error) {
	t0 := time.Now()
	tr := o.Trace
	mQueries.Inc()
	tr.SetName("query")
	tr.Attr("lines", int64(st.NumLines()))
	if st.cacheOn {
		st.cacheMu.RLock()
		r, ok := st.qcache[command]
		st.cacheMu.RUnlock()
		if ok {
			mQueryCacheHits.Inc()
			o.Budget.fold(Ledger{QueryCacheHits: 1})
			mQueryNS.Observe(time.Since(t0).Nanoseconds())
			mQueryMatches.Observe(int64(r.Matches))
			tr.Attr("cache_hit", 1)
			tr.Attr("matches", int64(r.Matches))
			if o.CountOnly {
				return &Result{Matches: r.Matches}, nil
			}
			return &Result{Matches: r.Matches, Lines: r.Lines, Entries: r.Entries}, nil
		}
	}
	tr.Attr("cache_hit", 0)
	if err := ctx.Err(); err != nil {
		mQueriesCancelled.Inc()
		return nil, err
	}

	parseSpan := tr.StartSpan("parse")
	expr, err := query.Parse(command)
	parseSpan.End()
	if err != nil {
		return nil, err
	}
	// A count over exactly filterable search strings is the filter sets
	// themselves: no verification, nothing reconstructed.
	exact := o.CountOnly && allExactLeaves(expr)

	st.mu.Lock()
	defer st.mu.Unlock()
	m := o.Budget.Child()
	st.ctx, st.en.meter = ctx, m
	defer func() { st.ctx, st.en.meter = nil, nil }()
	res, err := st.search(expr, exact, tr)
	work := m.Close()
	mQueryStampSkips.Add(work.StampSkips)
	mQueryScans.Add(work.CapsuleScans)
	mQueryScanCacheHits.Add(work.ScanCacheHits)
	mQueryBytesScanned.Add(work.BytesScanned)
	mQueryDecompressions.Add(work.Decompressions)
	if err != nil {
		if isInterrupt(err) {
			mQueriesCancelled.Inc()
		}
		return nil, err
	}
	res.Decompressions = int(work.Decompressions)
	mQueryNS.Observe(time.Since(t0).Nanoseconds())
	mQueryMatches.Observe(int64(res.Matches))
	if res.Partial {
		mQueryBudgetExceeded.Inc()
	}
	// A verifying count found the whole answer on its way, so it fills the
	// cache like a query; only the exact-bitset count has no lines to keep.
	if st.cacheOn && !res.Partial && !exact {
		st.cacheMu.Lock()
		st.qcache[command] = res
		st.cacheMu.Unlock()
	}
	if o.CountOnly && res.Lines != nil {
		c := *res
		c.Lines, c.Entries = nil, nil
		return &c, nil
	}
	return res, nil
}

// search is Search's uncached body, run under st.mu with the search's own
// meter installed; its filter and verify spans read that meter (the
// decode-free pass counts nothing on it), and the filter span carries how
// many groups that pass emptied when it ran. An exhausted budget is a
// Partial result, any other error is returned.
func (st *Store) search(expr query.Expr, exact bool, tr *obsv.Trace) (*Result, error) {
	m := st.en.meter
	res := &Result{}
	m.SetStage(StageFilter)
	filterSpan := tr.StartSpan("filter")
	within := st.narrow(expr)
	cand, err := st.filter(expr, within, exact)
	switch {
	case err == nil:
		filterSpan.Attr("candidates", int64(cand.count()))
	case isInterrupt(err):
		filterSpan.Attr("interrupted", 1)
	}
	if filterSpan != nil && within != nil {
		filterSpan.Attr("groups_dropped_before_decode", int64(st.dropped(within)))
	}
	filtered := m.Reading()
	filtered.attrs(filterSpan, 0, keyLineMaps).End()
	if err != nil {
		if !isBudgetStop(err) {
			return nil, err
		}
		// Budget exhaustion mid-filter degrades to an empty partial result
		// (candidates collected so far are an incomplete superset — verifying
		// them is sound but the filter has already discarded them).
		res.Partial, res.PartialReason = true, err.Error()
		return res, nil
	}

	if exact {
		res.Matches = cand.count()
	} else {
		m.SetStage(StageVerify)
		verifySpan := tr.StartSpan("verify")
		found, checked, verr := st.verify(expr, cand)
		switch {
		case verr == nil || isBudgetStop(verr):
			verifySpan.Attr("candidates_checked", int64(checked)).Attr("matches", int64(len(found)))
		case isInterrupt(verr):
			verifySpan.Attr("interrupted", 1)
		}
		verified := m.Reading()
		Ledger{Decompressions: verified.Decompressions - filtered.Decompressions, LineMaps: verified.LineMaps - filtered.LineMaps}.
			attrs(verifySpan, keyDecompressions, numKeys).End()
		if verr != nil && !isBudgetStop(verr) {
			return nil, verr
		}
		if verr != nil {
			// Budget ran out mid-verification: everything verified so far is
			// an exact match; report it and mark the cut.
			res.Partial, res.PartialReason = true, verr.Error()
		}
		res.Matches = len(found)
		if len(found) > 0 {
			res.Lines, res.Entries = make([]int, len(found)), make([]string, len(found))
			for i, m := range found {
				res.Lines[i], res.Entries[i] = m.line, m.entry
			}
		}
	}
	tr.Attr("matches", int64(res.Matches))
	return res, nil
}

// match is one verified result entry.
type match struct {
	line  int
	entry string
}

// verify reconstructs every candidate row, keeps those the exact expression
// matches, and returns them in ascending line order with how many rows it
// checked. Only groups that produced a match have their line map decoded.
// Each candidate is assembled in the store's scratch buffer and matched
// there; only a match costs a string, of its own length, so a cached answer
// holds only its own entries.
// On an interrupt it returns the matches verified so far with the error.
func (st *Store) verify(expr query.Expr, cand *rowSets) (found []match, checked int, err error) {
	bounds := []int{0} // where each group's run of matches starts in found, then its end
	// check verifies one group's (gi < 0: the outlier capsule's) candidates.
	check := func(gi int, set bitset.View, m *capsule.LineMap) error {
		start := len(found)
		var stop error
		set.ForEach(func(row int) bool {
			if stop = st.checkpoint(); stop != nil {
				return false
			}
			checked++
			if st.scratch, stop = st.appendRow(st.scratch[:0], gi, row); stop != nil {
				return false
			}
			// The expression only reads the row; a match keeps a copy.
			if entry := unsafe.String(unsafe.SliceData(st.scratch), len(st.scratch)); expr.Match(entry) {
				found = append(found, match{line: row, entry: string(st.scratch)})
			}
			return true
		})
		if len(found) == start {
			return stop
		}
		lines, lerr := st.lines(m)
		if lerr != nil {
			return lerr
		}
		for i := start; i < len(found); i++ {
			found[i].line = lines[found[i].line]
		}
		bounds = append(bounds, len(found))
		return stop
	}
	for _, s := range cand.slots {
		gi, lm := -1, &st.box.Meta.OutlierLines
		if s.slot < len(st.groups) {
			gi, lm = s.slot, &st.groups[s.slot].meta.Lines
		}
		if err = check(gi, s.rows, lm); err != nil {
			break
		}
	}
	if err != nil && !isInterrupt(err) {
		return nil, checked, err
	}
	// Each run ascends already (rows ascend with lines); only a result
	// drawn from several groups needs merging.
	if len(bounds) > 2 {
		found = mergeRuns(found, bounds)
	}
	return found, checked, err
}

// mergeRuns merges the ascending runs found[bounds[i]:bounds[i+1]], no line
// in two, by rounds of pairwise merges between found and one buffer.
func mergeRuns(found []match, bounds []int) []match {
	src, dst := found, make([]match, len(found))
	for len(bounds) > 2 {
		next := bounds[:0] // written behind the reads
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[min(i+2, len(bounds)-1)]
			k, a, b := lo, lo, mid
			for ; a < mid && b < hi; k++ {
				if src[a].line < src[b].line {
					dst[k], a = src[a], a+1
				} else {
					dst[k], b = src[b], b+1
				}
			}
			copy(dst[k+copy(dst[k:], src[a:mid]):], src[b:hi])
			next = append(next, lo)
		}
		bounds = append(next, len(found))
		src, dst = dst, src
	}
	return src
}

// isBudgetStop distinguishes budget exhaustion from cancellation among
// interrupt errors.
func isBudgetStop(err error) bool { return errors.Is(err, ErrBudgetExceeded) }

// filter is the filtering phase: the rows of within (all of the block's
// rows when within is nil) that may match the expression, and never a row
// outside within. It does not modify within. exact decides only how a NOT
// is handled:
//
//   - false: the result is a superset. A NOT yields all of within
//     (complementing a superset would not be sound); its pruning happens in
//     the verification phase, just as "grep -v" scans what earlier pipeline
//     stages let through.
//   - true, for an expression of all-exact leaves (allExactLeaves): the leaf
//     sets are exact, so the result is M(e) ∩ within itself. A NOT
//     complements soundly, but only a set computed over all rows: its
//     operand is evaluated unrestricted and the complement cut to within
//     after.
//
// Narrowing (§5.2, "check these rows in the second Capsule instead of
// scanning all rows"): an AND evaluates its more selective child first and
// hands the surviving rows to the other child as its within, so a later
// conjunct skips every group — and the outlier capsule — the earlier ones
// emptied, and starts each remaining group from the surviving rows. This is
// sound because restriction only ever intersects: with M(e) the rows that
// truly match e, each case keeps M(e) ∩ within ⊆ result ⊆ within. A search
// intersects its per-group sets into (a copy of) within. An OR hands within
// to both children and unions. An AND's first child returns
// L ⊇ M(hi) ∩ within and the second, given L, returns a superset of
// M(lo) ∩ L ⊇ M(hi AND lo) ∩ within. No narrowed set reaches under a NOT.
//
// Search runs the decode-free pass (narrow) first and hands its superset
// of M(e) in as within, so every conjunct, the first one too, enters only
// the groups the pass left.
func (st *Store) filter(e query.Expr, within *rowSets, exact bool) (*rowSets, error) {
	switch x := e.(type) {
	case *query.And:
		// The higher-selectivity side first (longest required fragment
		// wins): when it comes up empty the other side — and all of its
		// capsule lookups — is skipped entirely.
		hi, lo := andOrder(x)
		l, err := st.filter(hi, within, exact)
		if err != nil || !l.any() {
			return l, err
		}
		return st.filter(lo, l, exact)
	case *query.Or:
		l, err := st.filter(x.L, within, exact)
		if err != nil {
			return nil, err
		}
		r, err := st.filter(x.R, within, exact)
		if err != nil {
			return nil, err
		}
		return l.or(r), nil
	case *query.Not:
		if !exact {
			return st.rowsOf(within), nil
		}
		s, err := st.filter(x.X, nil, true)
		if err != nil {
			return nil, err
		}
		return st.rowsOf(within).andNot(s), nil
	case *query.Search:
		return st.searchCandidates(x, within)
	}
	return nil, fmt.Errorf("core: unknown query node %T", e)
}

// narrow is the decode-free narrowing pass: the whole expression evaluated
// on what needs no payload — template literals, the literals of a real
// variable's runtime pattern, capsule stamps, each nominal dictionary's
// pattern feasibility and the scans findCache already holds — where every
// hole it cannot decide answers "all rows". It is the filter itself, run
// with the engine's noDecode set and no meter or explain recorder attached,
// on the exact=false path, so a NOT answers within and nothing narrowed
// reaches under one. It reads no payload, line map or outlier capsule,
// never calls the read hook or checkpoint, and writes nothing to findCache.
//
// Its result is a superset of M(e), so the filter given it as within still
// answers M(e) ∩ within = M(e), now without entering any group the pass
// emptied. It returns nil — the filter starts unrestricted — when the
// expression holds no conjunction the pass could cut (passPays).
func (st *Store) narrow(e query.Expr) *rowSets {
	if !passPays(e) {
		return nil
	}
	return st.decodeFree(e)
}

// decodeFree runs narrow's pass whatever the expression's shape.
func (st *Store) decodeFree(e query.Expr) *rowSets {
	meter, ex := st.en.meter, st.ex
	st.en.meter, st.ex, st.en.noDecode = nil, nil, true
	defer func() { st.en.meter, st.ex, st.en.noDecode = meter, ex, false }()
	within, err := st.filter(e, nil, false)
	if err != nil {
		return nil // nothing it runs can fail; the filter proper reports it
	}
	return within
}

// passPays reports whether e holds, outside any NOT, a conjunction both of
// whose sides narrow: an AND of two narrowing operands, or a search string
// of more than one fragment. Without one the filter's first conjunct is
// its only one, and a hole the pass cannot decide costs the filter the same
// decode with the pass as without. The rule reads only the query's shape.
func passPays(e query.Expr) bool {
	switch x := e.(type) {
	case *query.And:
		return narrows(x.L) && narrows(x.R) || passPays(x.L) || passPays(x.R)
	case *query.Or:
		return passPays(x.L) || passPays(x.R)
	case *query.Search:
		return len(x.Fragments) > 1
	}
	return false
}

// narrows reports whether the filter may answer e with fewer rows than its
// within: a NOT never does, an OR only when both operands do.
func narrows(e query.Expr) bool {
	switch x := e.(type) {
	case *query.And:
		return narrows(x.L) || narrows(x.R)
	case *query.Or:
		return narrows(x.L) && narrows(x.R)
	case *query.Search:
		return true
	}
	return false
}

// dropped counts the groups the decode-free pass emptied.
func (st *Store) dropped(within *rowSets) int {
	n := len(st.groups)
	for _, s := range within.slots {
		if s.slot < len(st.groups) {
			n--
		}
	}
	return n
}

// andOrder returns an AND's children in evaluation order: the one with the
// higher selectivity hint first.
func andOrder(x *query.And) (hi, lo query.Expr) {
	if query.SelectivityHint(x.R) > query.SelectivityHint(x.L) {
		return x.R, x.L
	}
	return x.L, x.R
}

// fragmentOrder returns a search string's fragments longest first. Longest
// fragments are the most selective (CLP queries its "obscurest" keyword
// first for the same reason); putting them first lets the per-group
// intersection go empty before cheaper fragments are even looked up.
func fragmentOrder(s *query.Search) []string {
	if len(s.Fragments) < 2 {
		return s.Fragments // read only: nothing to order
	}
	frags := append([]string(nil), s.Fragments...)
	sort.SliceStable(frags, func(i, j int) bool { return len(frags[i]) > len(frags[j]) })
	return frags
}

// searchCandidates computes one search string's candidate superset among
// the rows of within (all rows when nil): per group, the intersection over
// the string's fragments of the rows whose entries may contain the fragment
// (runtime-pattern matching plus stamp filtering); block-level outlier
// lines match no template, so their text is always scanned (§4.1). Groups
// and outlier lines outside within are not looked at.
//
// In the decode-free pass (engine.noDecode) the outlier lines are not
// scanned: they stay candidates unless the outlier capsule's stamp rules a
// fragment out.
func (st *Store) searchCandidates(s *query.Search, within *rowSets) (*rowSets, error) {
	out := &rowSets{}
	frags := fragmentOrder(s)
	se := st.ex.search(s)
	outliers := bitset.None(0) // the outlier ranks to search
	if within == nil {
		out.slots = make([]slotRows, 0, len(st.groups)+1)
		for gi, g := range st.groups {
			if err := st.searchGroup(out, gi, bitset.All(g.n), frags, se); err != nil {
				return nil, err
			}
		}
		outliers = bitset.All(st.box.Meta.OutlierLines.Rows())
	} else {
		out.slots = make([]slotRows, 0, len(within.slots))
		for _, w := range within.slots {
			if w.slot == len(st.groups) {
				outliers = w.rows
			} else if err := st.searchGroup(out, w.slot, w.rows, frags, se); err != nil {
				return nil, err
			}
		}
	}
	oc := st.box.Meta.OutlierCapID
	if oc < 0 || !outliers.Any() {
		return out, nil
	}
	if st.en.noDecode {
		stamp := st.box.Meta.Capsules[oc].Stamp
		for _, frag := range frags {
			if st.en.stamps && !stamp.Admits(frag) {
				return out, nil
			}
		}
		out.add(len(st.groups), outliers)
		return out, nil
	}
	sr, err := st.searcher(oc)
	if err != nil {
		return nil, err
	}
	var hits *bitset.Set // made at the first hit
	outliers.ForEach(func(rank int) bool {
		// MatchEntry only reads the value, in place.
		if v := sr.Value(rank); s.MatchEntry(unsafe.String(unsafe.SliceData(v), len(v))) {
			if hits == nil {
				hits = bitset.New(sr.Rows())
			}
			hits.Set(rank)
		}
		return true
	})
	if hits != nil {
		v := hits.Freeze()
		out.add(len(st.groups), v)
		se.add(v)
	}
	return out, nil
}

// searchGroup intersects group gi's candidates cand with the rows that may
// hold each fragment, and lists what is left on out.
func (st *Store) searchGroup(out *rowSets, gi int, cand bitset.View, frags []string, se *SearchExplain) error {
	g := st.groups[gi]
	ge := se.group(g, cand)
	for _, frag := range frags {
		if cand.Any() {
			fs, err := st.en.findSubstr(g.seq, g.n, frag)
			if err != nil {
				return err
			}
			cand = bitset.And(cand, fs)
		} else if ge == nil {
			break
		}
		ge.after(cand)
	}
	se.add(cand)
	out.add(gi, cand)
	return nil
}

// ReconstructLine rebuilds the original text of one block line. The
// context gates the payload reads it causes, like a query's.
func (st *Store) ReconstructLine(ctx context.Context, line int) (string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ctx = ctx
	defer func() { st.ctx = nil }()
	index, err := st.lineRefs()
	if err != nil {
		return "", err
	}
	if line < 0 || line >= len(index) {
		return "", fmt.Errorf("core: line %d out of range", line)
	}
	ref := index[line]
	if st.scratch, err = st.appendRow(st.scratch[:0], ref.group, ref.row); err != nil {
		return "", err
	}
	return string(st.scratch), nil
}

// ReconstructAll rebuilds the entire block, one string per line: AppendAll's
// bytes, cut into lines of one string that shares their memory.
func (st *Store) ReconstructAll() ([]string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ends := make([]int, st.NumLines())
	buf, err := st.appendAll(nil, ends)
	if err != nil {
		return nil, err
	}
	// Nothing writes buf again, so the string may alias it.
	text := unsafe.String(unsafe.SliceData(buf), len(buf))
	out := make([]string, len(ends))
	start := 0
	for line, end := range ends {
		out[line], start = text[start:end-1], end
	}
	return out, nil
}

// AppendAll appends the whole block to dst in line order, each line ending
// in '\n'. Room for it is made once, from restoreBound, so a dst of
// len(dst)+restoreBound capacity is never regrown. On an error dst comes
// back unchanged.
func (st *Store) AppendAll(dst []byte) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out, err := st.appendAll(dst, nil)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// appendAll is AppendAll under st.mu. When ends is non-nil, ends[i] is set
// to the length of dst just past line i's '\n'.
func (st *Store) appendAll(dst []byte, ends []int) ([]byte, error) {
	index, err := st.lineRefs()
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, st.restoreBound())
	for line, ref := range index {
		if dst, err = st.appendRow(dst, ref.group, ref.row); err != nil {
			return dst, err
		}
		dst = append(dst, '\n')
		if ends != nil {
			ends[line] = len(dst)
		}
	}
	return dst, nil
}

// maxRestoreRatio caps restoreBound at this many bytes per box byte. A
// forged directory can promise any width; a real block restores to far
// less than this (DEFLATE cannot even inflate a payload past 1032:1), and
// one whose templates alone repeat beyond it only regrows its buffer.
const maxRestoreRatio = 1024

// restoreBound is an upper bound, read off the directory, on the bytes
// AppendAll appends: per group row, the template's literals, each
// variable's widest value and the newline; per outlier line, its capsule's
// widest value and the newline. No value is wider than its capsule's
// padded width or its stamp's MaxLen, whichever is larger (a padded
// dictionary segment's width is its pattern's MaxLen); a capsule with no
// width (delimited values) is bounded by the stamp alone.
func (st *Store) restoreBound() int {
	limit := maxRestoreRatio*st.size + 64<<10
	add := func(a, b int) int { return min(a+b, limit) }
	widest := func(id int) int {
		info := &st.box.Meta.Capsules[id]
		return min(max(info.Width, info.Stamp.MaxLen), limit)
	}
	total := 0
	span := func(rows, perRow int) {
		if rows > 0 && perRow > (limit-total)/rows {
			total = limit
		} else {
			total += rows * perRow
		}
	}
	for _, g := range st.groups {
		perRow := 1
		for _, te := range g.meta.Template {
			if te.Var < 0 {
				perRow = add(perRow, len(te.Lit))
				continue
			}
			vm := &g.meta.Vars[te.Var]
			w := 0
			switch vm.Kind {
			case capsule.RealVar:
				for _, e := range vm.Pattern {
					if e.Sub < 0 {
						w = add(w, len(e.Lit))
					} else {
						w = add(w, widest(e.CapID))
					}
				}
				if vm.OutCapID >= 0 {
					w = max(w, widest(vm.OutCapID))
				}
			case capsule.NominalVar:
				w = widest(vm.DictCapID)
				for _, dp := range vm.DictPatterns {
					w = max(w, min(dp.MaxLen, limit))
				}
			}
			perRow = add(perRow, w)
		}
		span(g.n, perRow)
	}
	if oc := st.box.Meta.OutlierCapID; oc >= 0 {
		span(st.box.Meta.Capsules[oc].Rows, add(widest(oc), 1))
	}
	return total
}

// rowPlan is one group's row assembly compiled (§3): its template with every
// real vector's runtime pattern inlined, as one run of ops, adjacent
// literals joined. Open has checked every capsule an op reads against the
// directory — its id, and that it holds the rows the op reads at — and a
// padded column is read inline only within the rows its payload holds.
type rowPlan struct {
	ops []rowOp
}

type opKind uint8

const (
	// opLit appends lit.
	opLit opKind = iota
	// opCol appends the value of capsule id at the row — at the rank among
	// the vector's matched rows when ranked.
	opCol
	// opOutlier starts a real vector that has outlier rows: an outlier row
	// appends its value from the outlier capsule and skips the vector's
	// next skip ops; any other row sets the rank its sub-variables read at.
	opOutlier
	// opNominal appends the dictionary entry that index capsule id names.
	opNominal
)

type rowOp struct {
	kind   opKind
	ranked bool
	skip   int
	id     int
	c      *column // capsule id's column
	// pad, width and rows copy c's once it is resolved and padded, so a
	// row reads its value without going through c.
	pad         []byte
	width, rows int
	lit         string
	vm          *capsule.VarMeta
	dict        *dictTable // opNominal's dictionary, once looked up
}

// plan returns group gi's row plan, compiled on the group's first
// assembled row. Compiling reads no payload: each column still resolves on
// its first use.
func (st *Store) plan(gi int) *rowPlan {
	if st.plans == nil {
		st.plans = make([]*rowPlan, len(st.groups))
	}
	if p := st.plans[gi]; p != nil {
		return p
	}
	p := &rowPlan{}
	fence := 0 // ops before it take no more literal: an outlier row skips them
	lit := func(l string) {
		if n := len(p.ops); n > fence && p.ops[n-1].kind == opLit {
			p.ops[n-1].lit += l
		} else if l != "" {
			p.ops = append(p.ops, rowOp{kind: opLit, lit: l})
		}
	}
	read := func(kind opKind, id int, ranked bool, vm *capsule.VarMeta) {
		p.ops = append(p.ops, rowOp{kind: kind, id: id, c: st.col(id), ranked: ranked, vm: vm})
	}
	g := st.groups[gi].meta
	for _, te := range g.Template {
		if te.Var < 0 {
			lit(te.Lit)
			continue
		}
		vm := &g.Vars[te.Var]
		if vm.Kind == capsule.NominalVar {
			read(opNominal, vm.IndexCapID, false, vm)
			continue
		}
		ranked := len(vm.OutRows) > 0
		start := len(p.ops)
		if ranked {
			read(opOutlier, vm.OutCapID, false, vm)
		}
		for _, e := range vm.Pattern {
			if e.Sub < 0 {
				lit(e.Lit)
			} else {
				read(opCol, e.CapID, ranked, nil)
			}
		}
		if ranked {
			p.ops[start].skip = len(p.ops) - start - 1
			fence = len(p.ops)
		}
	}
	st.plans[gi] = p
	return p
}

// appendRow is the Reconstructor (§3): it appends the text of row of group
// gi — or, for gi < 0, of the row-th block outlier line — to dst, running
// the group's row plan. A padded column's value is sliced out of its
// payload at row·width, O(1) thanks to padding; every other read goes
// through value, which resolves a column — or fetches a chunk — on first
// use, so a row never decodes a capsule it does not read.
func (st *Store) appendRow(dst []byte, gi, row int) ([]byte, error) {
	if gi < 0 {
		sr, err := st.searcher(st.box.Meta.OutlierCapID)
		if err != nil {
			return dst, err
		}
		if row < 0 || row >= sr.Rows() {
			return dst, fmt.Errorf("%w: outlier line %d beyond its capsule", capsule.ErrCorrupt, row)
		}
		return append(dst, sr.Value(row)...), nil
	}
	ops := st.plan(gi).ops
	rank := row
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		r := row
		switch op.kind {
		case opLit:
			dst = append(dst, op.lit...)
			continue
		case opOutlier:
			oi, out := slices.BinarySearch(op.vm.OutRows, row)
			if !out {
				rank = row - oi
				continue
			}
			r, i = oi, i+op.skip
		case opCol:
			if op.ranked {
				r = rank
			}
		}
		var v []byte
		if uint(r) < uint(op.rows) {
			v = strmatch.Unpad(op.pad[r*op.width : (r+1)*op.width])
		} else {
			var err error
			if v, err = st.value(op.id, r); err != nil {
				return dst, err
			}
			if c := op.c; c.width > 0 {
				op.pad, op.width, op.rows = c.pad, c.width, c.rows
			}
		}
		if op.kind == opNominal {
			var err error
			if v, err = st.dictEntry(op, v); err != nil {
				return dst, err
			}
		}
		dst = append(dst, v...)
	}
	return dst, nil
}

// dictEntry returns the entry of op's dictionary that index entry iv names,
// keeping the dictionary on op once a lookup has laid it out.
func (st *Store) dictEntry(op *rowOp, iv []byte) ([]byte, error) {
	idx, ok := parseIndex(iv)
	if !ok {
		return nil, fmt.Errorf("%w: bad index entry %q", capsule.ErrCorrupt, iv)
	}
	if d := op.dict; d != nil && uint(idx) < uint(len(d.vals)) {
		return d.vals[idx], nil
	}
	v, err := st.dictValue(op.vm, idx)
	if err == nil {
		op.dict = st.col(op.vm.DictCapID).dict
	}
	return v, err
}

// parseIndex reads a dictionary index entry as strconv.Atoi would — an
// optional sign, then decimal digits that fit an int — without allocating.
// ok is false exactly where Atoi fails.
func parseIndex(b []byte) (idx int, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

// dictValue fetches dictionary entry idx out of vm's dictionary, whose
// entries are laid out by position on its first lookup.
func (st *Store) dictValue(vm *capsule.VarMeta, idx int) ([]byte, error) {
	if idx >= 0 {
		d, err := st.dict(vm)
		if err != nil {
			return nil, err
		}
		if idx < len(d.vals) {
			return d.vals[idx], nil
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	return nil, fmt.Errorf("%w: dict index %d out of range", capsule.ErrCorrupt, idx)
}

// dict returns vm's dictionary with vals filled: out of the segment table
// of a padded dictionary, out of the column of a delimited one.
func (st *Store) dict(vm *capsule.VarMeta) (*dictTable, error) {
	if st.padding {
		d, err := st.dictSegments(vm)
		if err != nil || d.vals != nil {
			return d, err
		}
		n := 0
		for i := range d.segs {
			n += d.segs[i].fw.Rows()
		}
		d.vals = make([][]byte, 0, n)
		for i := range d.segs {
			fw := &d.segs[i].fw
			for r := 0; r < fw.Rows(); r++ {
				d.vals = append(d.vals, fw.Value(r))
			}
		}
		return d, nil
	}
	c := st.col(vm.DictCapID)
	if c.dict != nil && c.dict.vm == vm {
		return c.dict, nil
	}
	sr, err := st.searcher(vm.DictCapID)
	if err != nil {
		return nil, err
	}
	d := &dictTable{vm: vm, vals: make([][]byte, sr.Rows())}
	for i := range d.vals {
		d.vals[i] = sr.Value(i)
	}
	c.dict = d
	return d, nil
}

// dictTable is a dictionary laid out for lookups and scans. For a padded
// dictionary segs holds one entry per runtime pattern's segment — segs[i]
// vm.DictPatterns[i]'s entries — in dictionary order, up to the first
// segment the capsule is too short to hold (err then says so). vals, once
// the Reconstructor has looked an entry up, holds every entry by position.
type dictTable struct {
	vm   *capsule.VarMeta
	segs []dictSeg
	vals [][]byte
	err  error
}

// dictSeg is one segment of a padded dictionary.
type dictSeg struct {
	base int // dictionary position of its first entry
	fw   strmatch.FixedWidth
}

// dictSegments returns vm's dictionary segment table, built on the
// dictionary's first use: one read of the capsule, and the directory's
// segment sizes checked against it.
func (st *Store) dictSegments(vm *capsule.VarMeta) (*dictTable, error) {
	c := st.col(vm.DictCapID)
	if c.dict != nil && c.dict.vm == vm {
		return c.dict, nil
	}
	payload, err := st.payload(vm.DictCapID)
	if err != nil {
		return nil, err
	}
	d := &dictTable{vm: vm, segs: make([]dictSeg, 0, len(vm.DictPatterns))}
	base, off := 0, 0
	for _, dp := range vm.DictPatterns {
		width := max(1, dp.MaxLen)
		if dp.Count > (len(payload)-off)/width {
			d.err = fmt.Errorf("%w: dict capsule %d shorter than its segments", capsule.ErrCorrupt, vm.DictCapID)
			break
		}
		end := off + dp.Count*width
		d.segs = append(d.segs, dictSeg{base: base, fw: *strmatch.NewFixedWidth(payload[off:end], width)})
		base, off = base+dp.Count, end
	}
	c.dict = d
	return d, nil
}
