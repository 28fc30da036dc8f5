package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

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
	searchers      map[int]searcher
	chunkSearchers map[[2]int]searcher
	findCache      map[findKey]*bitset.Set
	size           int
	stats          scanStats
	readHook       ReadHook
	// lineIndex inverts the line maps (block line → group row). Queries
	// never need it; lineRefs builds it for the by-line-number entry points.
	lineIndex    []lineRef
	lineIndexErr error
	// ex, non-nil only while Explain holds mu, records the filter funnel.
	ex *explainRec

	// mu serializes every path that touches the mutable state above
	// (searchers, findCache, the box payload caches, stats, the engine's
	// stamp counters): uncached queries, reconstruction, Explain, and the
	// counter accessors.
	mu sync.Mutex
	// intr is the active query's cancellation/budget state; non-nil only
	// while mu is held by a query.
	intr *interruptState

	// cacheMu guards the Query Cache independently of mu so cache hits
	// never wait behind a running query.
	cacheMu sync.RWMutex
	qcache  map[string]*Result
}

// scanStats counts the scan-level work a store performed; queries snapshot
// it before/after to fill their traces.
type scanStats struct {
	// scans counts Capsule payload scans actually executed; scanCacheHits
	// counts scans answered from findCache.
	scans         int
	scanCacheHits int
	// bytesScanned sums the decompressed payload bytes those scans
	// examined.
	bytesScanned int
	// lineMaps counts line maps decoded (first touches).
	lineMaps int
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
	// Damaged lists blocks and line ranges that could not be searched;
	// the answer is complete for every range not listed here. Always empty
	// for a Store, and for a healthy archive.
	Damaged []BlockError
	// Partial marks a result cut short — by an exhausted query budget or,
	// on a stream, by storage damage. Every returned entry is still a
	// verified, exact match; only later matches may be missing. (Damaged
	// alone is not Partial: an archive answers in full for the rest.)
	// Partial results are never cached.
	Partial bool
	// PartialReason says what stopped the query (empty when Partial is
	// false).
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
// an archive or stream passes them to each block it searches.
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
	// Workers bounds how many blocks an archive searches at once
	// (0 = GOMAXPROCS). A Store is one block and ignores it.
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
		searchers:      make(map[int]searcher),
		chunkSearchers: make(map[[2]int]searcher),
		findCache:      make(map[findKey]*bitset.Set),
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
func (st *Store) lines(m *capsule.LineMap) ([]int, error) {
	if m.Pending() {
		st.stats.lineMaps++
	}
	return m.Lines()
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

// value fetches the row-th value of a capsule. For chunked capsules whose
// full payload is not already materialized, only the chunk containing the
// row is decompressed — the point of Options.ChunkBytes.
func (st *Store) value(id, row int) ([]byte, error) {
	info := st.box.Meta.Capsules[id]
	if row < 0 || row >= info.Rows {
		return nil, fmt.Errorf("%w: row %d beyond capsule %d", capsule.ErrCorrupt, row, id)
	}
	if info.ChunkRows > 0 && st.box.ChunkCount(id) > 1 {
		if _, whole := st.searchers[id]; !whole {
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

// searcher returns the cached payload searcher of a capsule.
func (st *Store) searcher(id int) (searcher, error) {
	if sr, ok := st.searchers[id]; ok {
		return sr, nil
	}
	payload, err := st.payload(id)
	if err != nil {
		return nil, err
	}
	info := st.box.Meta.Capsules[id]
	var sr searcher
	if info.Width > 0 {
		sr = strmatch.NewFixedWidth(payload, info.Width)
	} else {
		sr = strmatch.NewVarWidth(payload, info.Rows)
		if sr.Rows() != info.Rows {
			return nil, fmt.Errorf("%w: capsule %d holds %d values, want %d", capsule.ErrCorrupt, id, sr.Rows(), info.Rows)
		}
	}
	st.searchers[id] = sr
	return sr, nil
}

// NumLines returns the number of entries in the block.
func (st *Store) NumLines() int { return st.box.Meta.NumLines }

// CompressedSize returns the size of the CapsuleBox in bytes.
func (st *Store) CompressedSize() int { return st.size }

// Decompressions returns the number of capsule payloads decompressed since
// the store was opened (or since ResetCounters).
func (st *Store) Decompressions() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.box.Decompressions
}

// SetReadHook installs (or clears, with nil) the payload read hook. It
// waits for any running query, so a hook never appears mid-query.
func (st *Store) SetReadHook(h ReadHook) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.readHook = h
}

// ResetCounters drops decompressed payload caches and counters, modelling a
// cold query.
func (st *Store) ResetCounters() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.box.DropCache()
	st.lineIndex = nil
	st.searchers = make(map[int]searcher)
	st.chunkSearchers = make(map[[2]int]searcher)
	st.findCache = make(map[findKey]*bitset.Set)
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
// over-approximation). The verification phase reconstructs only the
// surviving candidate rows and evaluates the exact expression on their
// text, so results are precisely what grep on the raw block would return.
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
	st.intr = &interruptState{ctx: ctx, meter: o.Budget}
	defer func() { st.intr = nil }()

	res := &Result{}
	d0 := st.box.Decompressions
	pruned0, admitted0 := st.en.pruned, st.en.admitted
	stats0 := st.stats
	o.Budget.SetStage(StageFilter)
	filterSpan := tr.StartSpan("filter")
	var cand *rowSets
	if exact {
		cand, err = st.exactEval(expr, nil)
	} else {
		cand, err = st.overApprox(expr, nil)
	}
	if err != nil && !isInterrupt(err) {
		filterSpan.End()
		return nil, err
	}
	if err != nil {
		// Stopped mid-filter. Budget exhaustion degrades to an empty
		// partial result (candidates collected so far are an incomplete
		// superset — verifying them is sound but the filter has already
		// discarded them); cancellation is a real error.
		filterSpan.Attr("interrupted", 1).End()
		if !isBudgetStop(err) {
			mQueriesCancelled.Inc()
			return nil, err
		}
		mQueryBudgetExceeded.Inc()
		res.Partial, res.PartialReason = true, err.Error()
		res.Decompressions = st.box.Decompressions - d0
		mQueryNS.Observe(time.Since(t0).Nanoseconds())
		return res, nil
	}
	filterSpan.Attr("candidates", int64(cand.count())).
		Attr("stamp_admits", int64(st.en.admitted-admitted0)).
		Attr("stamp_skips", int64(st.en.pruned-pruned0)).
		Attr("capsule_scans", int64(st.stats.scans-stats0.scans)).
		Attr("scan_cache_hits", int64(st.stats.scanCacheHits-stats0.scanCacheHits)).
		Attr("bytes_scanned", int64(st.stats.bytesScanned-stats0.bytesScanned)).
		Attr("decompressions", int64(st.box.Decompressions-d0)).
		End()
	mQueryStampSkips.Add(int64(st.en.pruned - pruned0))
	mQueryScans.Add(int64(st.stats.scans - stats0.scans))
	mQueryScanCacheHits.Add(int64(st.stats.scanCacheHits - stats0.scanCacheHits))
	mQueryBytesScanned.Add(int64(st.stats.bytesScanned - stats0.bytesScanned))

	if exact {
		res.Matches = cand.count()
	} else {
		dFilter := st.box.Decompressions
		o.Budget.SetStage(StageVerify)
		verifySpan := tr.StartSpan("verify")
		found, checked, verr := st.verify(expr, cand)
		if verr != nil && !isInterrupt(verr) {
			verifySpan.End()
			return nil, verr
		}
		if verr != nil && !isBudgetStop(verr) {
			verifySpan.Attr("interrupted", 1).End()
			mQueriesCancelled.Inc()
			return nil, verr
		}
		if verr != nil {
			// Budget ran out mid-verification: everything verified so far is
			// an exact match; report it and mark the cut.
			mQueryBudgetExceeded.Inc()
			res.Partial, res.PartialReason = true, verr.Error()
		}
		res.Matches = len(found)
		if len(found) > 0 {
			res.Lines, res.Entries = make([]int, len(found)), make([]string, len(found))
			for i, m := range found {
				res.Lines[i], res.Entries[i] = m.line, m.entry
			}
		}
		verifySpan.Attr("candidates_checked", int64(checked)).
			Attr("matches", int64(res.Matches)).
			Attr("decompressions", int64(st.box.Decompressions-dFilter)).
			Attr("line_maps", int64(st.stats.lineMaps-stats0.lineMaps)).
			End()
	}

	res.Decompressions = st.box.Decompressions - d0
	mQueryDecompressions.Add(int64(res.Decompressions))
	mQueryNS.Observe(time.Since(t0).Nanoseconds())
	mQueryMatches.Observe(int64(res.Matches))
	tr.Attr("matches", int64(res.Matches))
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

// match is one verified result entry.
type match struct {
	line  int
	entry string
}

// verify reconstructs every candidate row, keeps those the exact expression
// matches, and returns them in ascending line order with how many rows it
// checked. Only groups that produced a match have their line map decoded.
// On an interrupt it returns the matches verified so far with the error.
func (st *Store) verify(expr query.Expr, cand *rowSets) (found []match, checked int, err error) {
	runs := 0
	// check verifies one group's (or the outlier capsule's) candidates.
	check := func(set *bitset.Set, m *capsule.LineMap, entryOf func(row int) (string, error)) error {
		if set == nil {
			return nil
		}
		start := len(found)
		var stop error
		set.ForEach(func(row int) bool {
			if stop = st.checkpoint(); stop != nil {
				return false
			}
			checked++
			var entry string
			if entry, stop = entryOf(row); stop != nil {
				return false
			}
			if expr.Match(entry) {
				found = append(found, match{line: row, entry: entry})
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
		runs++
		return stop
	}
	for gi, g := range st.groups {
		err = check(cand.sets[gi], &g.meta.Lines, func(row int) (string, error) { return st.reconstructRow(gi, row) })
		if err != nil {
			break
		}
	}
	if err == nil {
		err = check(cand.outlier(), &st.box.Meta.OutlierLines, st.outlierEntry)
	}
	if err != nil && !isInterrupt(err) {
		return nil, checked, err
	}
	// Each run ascends already (rows ascend with lines); only a result
	// drawn from several groups needs merging.
	if runs > 1 {
		slices.SortFunc(found, func(a, b match) int { return cmp.Compare(a.line, b.line) })
	}
	return found, checked, err
}

// outlierEntry returns the rank-th block outlier line.
func (st *Store) outlierEntry(rank int) (string, error) {
	sr, err := st.searcher(st.box.Meta.OutlierCapID)
	if err != nil {
		return "", err
	}
	if rank < 0 || rank >= sr.Rows() {
		return "", fmt.Errorf("%w: outlier line %d beyond its capsule", capsule.ErrCorrupt, rank)
	}
	return string(sr.Value(rank)), nil
}

// isBudgetStop distinguishes budget exhaustion from cancellation among
// interrupt errors.
func isBudgetStop(err error) bool { return errors.Is(err, ErrBudgetExceeded) }

// overApprox returns a superset of the rows of within that match the
// expression — of all the block's rows when within is nil — and never a row
// outside within. It does not modify within.
//
// NOT nodes yield all of within (complementing a superset would not be
// sound); their pruning happens in the verification phase, just as
// "grep -v" scans what earlier pipeline stages let through.
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
// M(lo) ∩ L ⊇ M(hi AND lo) ∩ within. A NOT's operand is never evaluated
// here, so no narrowed set can reach under a NOT; it contributes all of
// within. (exactEval in count.go does evaluate NOT operands, and keeps them
// unrestricted.)
func (st *Store) overApprox(e query.Expr, within *rowSets) (*rowSets, error) {
	switch x := e.(type) {
	case *query.And:
		// The higher-selectivity side first (longest required fragment
		// wins): when it comes up empty the other side — and all of its
		// capsule lookups — is skipped entirely.
		hi, lo := andOrder(x)
		l, err := st.overApprox(hi, within)
		if err != nil || !l.any() {
			return l, err
		}
		return st.overApprox(lo, l)
	case *query.Or:
		l, err := st.overApprox(x.L, within)
		if err != nil {
			return nil, err
		}
		r, err := st.overApprox(x.R, within)
		if err != nil {
			return nil, err
		}
		return l.or(r), nil
	case *query.Not:
		return st.rowsOf(within), nil
	case *query.Search:
		return st.searchCandidates(x, within)
	}
	return nil, fmt.Errorf("core: unknown query node %T", e)
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
func (st *Store) searchCandidates(s *query.Search, within *rowSets) (*rowSets, error) {
	out := st.noRows()
	frags := fragmentOrder(s)
	se := st.ex.search(s)
	for gi, g := range st.groups {
		var cand *bitset.Set
		switch {
		case within == nil:
			cand = bitset.NewFull(g.n)
		case within.sets[gi] != nil:
			cand = within.sets[gi].Clone()
		default:
			continue
		}
		ge := se.group(g, cand)
		for _, frag := range frags {
			if cand.Any() {
				fs, err := st.en.findSubstr(g.seq, g.n, frag)
				if err != nil {
					return nil, err
				}
				cand.And(fs)
			} else if ge == nil {
				break
			}
			ge.after(cand)
		}
		se.add(cand)
		out.sets[gi] = nonEmpty(cand)
	}
	oc := st.box.Meta.OutlierCapID
	if oc < 0 || (within != nil && within.outlier() == nil) {
		return out, nil
	}
	sr, err := st.searcher(oc)
	if err != nil {
		return nil, err
	}
	hits := bitset.New(sr.Rows())
	test := func(rank int) bool {
		if s.MatchEntry(string(sr.Value(rank))) {
			hits.Set(rank)
		}
		return true
	}
	if within != nil {
		within.outlier().ForEach(test)
	} else {
		for rank := 0; rank < sr.Rows(); rank++ {
			test(rank)
		}
	}
	se.add(hits)
	out.sets[len(st.groups)] = nonEmpty(hits)
	return out, nil
}

// ReconstructLine rebuilds the original text of one block line. The
// context gates the payload reads it causes, like a query's.
func (st *Store) ReconstructLine(ctx context.Context, line int) (string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.intr = &interruptState{ctx: ctx}
	defer func() { st.intr = nil }()
	return st.reconstructLineLocked(line)
}

// reconstructLineLocked is ReconstructLine for callers already holding
// st.mu (ReconstructAll).
func (st *Store) reconstructLineLocked(line int) (string, error) {
	index, err := st.lineRefs()
	if err != nil {
		return "", err
	}
	if line < 0 || line >= len(index) {
		return "", fmt.Errorf("core: line %d out of range", line)
	}
	ref := index[line]
	if ref.group < 0 {
		return st.outlierEntry(ref.row)
	}
	return st.reconstructRow(ref.group, ref.row)
}

// reconstructRow rebuilds entry row of group gi by fetching the row-th
// value of every Capsule of the group (O(1) per value thanks to padding)
// and filling the static and runtime patterns (§3 Reconstruction).
func (st *Store) reconstructRow(gi, row int) (string, error) {
	g := st.groups[gi]
	var out []byte
	for _, te := range g.meta.Template {
		if te.Var < 0 {
			out = append(out, te.Lit...)
			continue
		}
		val, err := st.varValue(&g.meta.Vars[te.Var], row)
		if err != nil {
			return "", err
		}
		out = append(out, val...)
	}
	return string(out), nil
}

// varValue fetches the row-th value of one variable vector.
func (st *Store) varValue(vm *capsule.VarMeta, row int) (string, error) {
	switch vm.Kind {
	case capsule.RealVar:
		if len(vm.OutRows) > 0 {
			oi := sort.SearchInts(vm.OutRows, row)
			if oi < len(vm.OutRows) && vm.OutRows[oi] == row {
				v, err := st.value(vm.OutCapID, oi)
				if err != nil {
					return "", err
				}
				return string(v), nil
			}
			row -= oi // rank among matched rows
		}
		var out []byte
		for _, e := range vm.Pattern {
			if e.Sub < 0 {
				out = append(out, e.Lit...)
				continue
			}
			v, err := st.value(e.CapID, row)
			if err != nil {
				return "", err
			}
			out = append(out, v...)
		}
		return string(out), nil

	case capsule.NominalVar:
		iv, err := st.value(vm.IndexCapID, row)
		if err != nil {
			return "", err
		}
		idx, err := strconv.Atoi(string(iv))
		if err != nil {
			return "", fmt.Errorf("%w: bad index entry: %v", capsule.ErrCorrupt, err)
		}
		return st.dictValue(vm, idx)
	}
	return "", fmt.Errorf("%w: unknown variable kind", capsule.ErrCorrupt)
}

// dictValue fetches dictionary entry idx, jumping to its pattern's segment
// via the (count, length) stamps when the dictionary is padded.
func (st *Store) dictValue(vm *capsule.VarMeta, idx int) (string, error) {
	if idx < 0 {
		return "", fmt.Errorf("%w: dict index %d out of range", capsule.ErrCorrupt, idx)
	}
	if !st.padding {
		sr, err := st.searcher(vm.DictCapID)
		if err != nil {
			return "", err
		}
		if idx >= sr.Rows() {
			return "", fmt.Errorf("%w: dict index %d out of range", capsule.ErrCorrupt, idx)
		}
		return string(sr.Value(idx)), nil
	}
	w, err := st.walkDict(vm)
	if err != nil {
		return "", err
	}
	for w.next() {
		if idx < w.base+w.dp.Count {
			return string(strmatch.NewFixedWidth(w.seg, w.width).Value(idx - w.base)), nil
		}
	}
	if err := w.err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%w: dict index %d out of range", capsule.ErrCorrupt, idx)
}

// dictWalk steps through a padded dictionary capsule one runtime pattern's
// segment at a time, in dictionary order. It is the one place that fetches
// a dictionary's bytes and checks the directory's segment sizes against
// them.
type dictWalk struct {
	payload []byte
	pats    []capsule.DictPatternMeta
	capID   int
	i       int // segments visited so far
	end     int // payload offset just past the current segment

	// The current segment, valid after next returns true.
	dp    *capsule.DictPatternMeta
	base  int    // dictionary position of its first entry
	seg   []byte // its entries: dp.Count rows of width bytes
	width int
}

func (st *Store) walkDict(vm *capsule.VarMeta) (dictWalk, error) {
	payload, err := st.payload(vm.DictCapID)
	return dictWalk{payload: payload, pats: vm.DictPatterns, capID: vm.DictCapID}, err
}

// next moves to the following segment. It returns false after the last
// one, and at a segment the capsule is too short to hold: err tells which.
func (w *dictWalk) next() bool {
	if w.i == len(w.pats) {
		return false
	}
	if w.dp != nil {
		w.base += w.dp.Count
	}
	w.dp = &w.pats[w.i]
	w.width = max(1, w.dp.MaxLen)
	off := w.end
	w.end += w.dp.Count * w.width
	if w.end > len(w.payload) {
		return false
	}
	w.seg = w.payload[off:w.end]
	w.i++
	return true
}

// err reports why next returned false: nil at the end of the dictionary.
func (w *dictWalk) err() error {
	if w.i == len(w.pats) {
		return nil
	}
	return fmt.Errorf("%w: dict capsule %d shorter than its segments", capsule.ErrCorrupt, w.capID)
}

// ReconstructAll rebuilds the entire block, one string per line.
func (st *Store) ReconstructAll() ([]string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, st.NumLines())
	for line := range out {
		s, err := st.reconstructLineLocked(line)
		if err != nil {
			return nil, err
		}
		out[line] = s
	}
	return out, nil
}
