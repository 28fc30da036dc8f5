package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"loggrep/internal/obsv"
)

// ErrBudgetExceeded marks a query stopped by its work budget. It never
// escapes the query path as an error: the query returns a Result with
// Partial set instead, and internal scan loops use the sentinel to unwind.
var ErrBudgetExceeded = errors.New("core: query budget exceeded")

// Budget caps the work one query may perform, independent of its
// wall-clock deadline (which travels on the context). A zero field means
// unlimited. Budgets make a pathological query — a broad OR over a huge
// archive, say — degrade into a clearly-marked partial result instead of
// monopolizing the store.
type Budget struct {
	// MaxScannedBytes caps the decompressed capsule payload bytes the
	// query's scans may examine.
	MaxScannedBytes int64
	// MaxDecompressions caps how many capsule payloads (or chunks) the
	// query may decompress.
	MaxDecompressions int64
}

// Stage is how far a query has got: queued before any engine work, then
// filtering, verifying, done. A meter keeps the highest stage it has been
// set to, so parallel block workers finishing out of order cannot make it
// run backwards.
type Stage int32

const (
	// StageQueued: admitted or waiting, no engine work yet.
	StageQueued Stage = iota
	// StageFilter: pattern-level filtering (index, stamps, capsule scans)
	// is building the candidate set.
	StageFilter
	// StageVerify: exact verification of candidate lines.
	StageVerify
	// StageDone: the request has finished.
	StageDone
)

// String returns the stage's wire name (the /v1/inflight "stage" field).
func (s Stage) String() string {
	switch s {
	case StageQueued:
		return "queued"
	case StageFilter:
		return "filter"
	case StageVerify:
		return "verify"
	case StageDone:
		return "done"
	}
	return "unknown"
}

// Ledger is one reading of a meter: the engine work counted on it. Every
// reader of a query's work reads one — a Store's filter and verify spans, an
// archive's block spans, Result.Decompressions, the process counters, the
// wide event, /v1/inflight, /v1/usage — so they agree by construction.
type Ledger struct {
	// StampAdmits counts stamp checks that let a capsule scan proceed,
	// StampSkips the scans the stamps eliminated (§5.1).
	StampAdmits, StampSkips int64
	// CapsuleScans counts capsule payload scans executed, ScanCacheHits the
	// scans a store's scan cache answered, and BytesScanned the
	// decompressed payload bytes the executed scans examined.
	CapsuleScans, ScanCacheHits, BytesScanned int64
	// Decompressions counts capsule payloads (or chunks) decompressed,
	// LineMaps the line maps decoded on first touch.
	Decompressions, LineMaps int64
	// QueryCacheHits counts Store searches the Query Cache answered whole.
	QueryCacheHits int64
	// Blocks counts the archive blocks planned; BlocksSearched and
	// BlocksSkipped (by the index or a block stamp) those decided so far.
	Blocks, BlocksSearched, BlocksSkipped int64
}

func (l *Ledger) add(o Ledger) {
	l.StampAdmits += o.StampAdmits
	l.StampSkips += o.StampSkips
	l.CapsuleScans += o.CapsuleScans
	l.ScanCacheHits += o.ScanCacheHits
	l.BytesScanned += o.BytesScanned
	l.Decompressions += o.Decompressions
	l.LineMaps += o.LineMaps
	l.QueryCacheHits += o.QueryCacheHits
	l.Blocks += o.Blocks
	l.BlocksSearched += o.BlocksSearched
	l.BlocksSkipped += o.BlocksSkipped
}

// Spans carry the ledger's counters in the order attrs lists them: a
// Store's filter span all but line maps, its verify span what verification
// adds (decompressions, line maps), an archive's block span all.
const keyDecompressions, keyLineMaps, numKeys = 5, 6, 7

// attrs writes counters [from, to) onto a span. Their names, which bench/
// and OPERATIONS.md §6 read, are written here and nowhere else.
func (l Ledger) attrs(sp *obsv.SpanCursor, from, to int) *obsv.SpanCursor {
	keys := [numKeys]string{"stamp_admits", "stamp_skips", "capsule_scans", "scan_cache_hits", "bytes_scanned", "decompressions", "line_maps"}
	vals := [numKeys]int64{l.StampAdmits, l.StampSkips, l.CapsuleScans, l.ScanCacheHits, l.BytesScanned, l.Decompressions, l.LineMaps}
	for i := from; i < to; i++ {
		sp = sp.Attr(keys[i], vals[i])
	}
	return sp
}

// BlockAttrs writes a searched block's ledger onto its span: every counter,
// unless the block's Query Cache answered it — then none, which is how a
// reader of the spans tells a cached block from one that did no work.
func (l Ledger) BlockAttrs(sp *obsv.SpanCursor) *obsv.SpanCursor {
	if l.QueryCacheHits > 0 {
		return sp
	}
	return l.attrs(sp, 0, numKeys)
}

// FillEvent writes the reading into a request's wide event: its work
// counters and block counts, which is what /v1/usage bills.
func (l Ledger) FillEvent(ev *obsv.WideEvent) {
	ev.StampAdmits, ev.StampSkips = l.StampAdmits, l.StampSkips
	ev.CapsuleScans, ev.ScanCacheHits = l.CapsuleScans, l.ScanCacheHits
	ev.BytesScanned, ev.Decompressions = l.BytesScanned, l.Decompressions
	ev.Blocks, ev.BlocksSearched, ev.BlocksSkipped = l.Blocks, l.BlocksSearched, l.BlocksSkipped
}

// BudgetState is one query's meter. It counts the query's work where the
// work happens — the Store's stamp checks, scans, reads and line maps, the
// blocks its archives planned, searched and skipped, the stage it is in —
// and stops the query once the work reaches a cap of its Budget.
//
// A part of the query runs under a Child: every Store search does, and so
// does each block an archive searches. Bytes scanned and decompressions are
// charged on the child and every ancestor as they happen, because the caps
// bind there; the other counts are tallied on the child alone and folded
// into its parent once, when the child is closed. So a child's reading is
// its own part (a block span reads it) and the root's is the whole query
// (the wide event reads it). While a query runs, the live view reads the
// root: exact in bytes, decompressions, blocks and stage, the rest as of
// the last closed child.
//
// All methods are safe for concurrent use and counters only ever grow, so
// a reading never runs backwards. A nil *BudgetState is unlimited, counts
// nothing and is valid everywhere one is accepted.
type BudgetState struct {
	budget Budget
	parent *BudgetState
	// scanned and decomp are charged on this meter and every ancestor.
	scanned atomic.Int64
	decomp  atomic.Int64
	stage   atomic.Int32
	// own is tallied by the one Store search this meter belongs to, which
	// alone writes it: the stamp check, run thousands of times a query,
	// costs a plain add.
	own Ledger
	// mu guards folded: blocks added here and closed children's ledgers.
	mu     sync.Mutex
	folded Ledger
}

// NewBudgetState starts a meter under a budget; a zero Budget counts
// without capping.
func NewBudgetState(b Budget) *BudgetState { return &BudgetState{budget: b} }

// Child starts a meter for one part of the query under bs: bs's caps (and
// its ancestors') still bind, and the child's counts reach bs as described
// on BudgetState. Close it once the part is done. nil.Child() is a fresh
// unlimited meter.
func (bs *BudgetState) Child() *BudgetState { return &BudgetState{parent: bs} }

// Close ends a child's part of the query: it folds the child's tallies
// into its parent, once, and returns the child's reading.
func (bs *BudgetState) Close() Ledger {
	l := bs.Reading()
	if bs != nil {
		f := l
		f.BytesScanned, f.Decompressions = 0, 0 // charged as they happened
		bs.parent.fold(f)
	}
	return l
}

// fold adds counts to the meter under its lock.
func (bs *BudgetState) fold(l Ledger) {
	if bs == nil {
		return
	}
	bs.mu.Lock()
	bs.folded.add(l)
	bs.mu.Unlock()
}

// Reading returns the work counted so far.
func (bs *BudgetState) Reading() Ledger {
	if bs == nil {
		return Ledger{}
	}
	bs.mu.Lock()
	l := bs.folded
	bs.mu.Unlock()
	l.add(bs.own)
	l.BytesScanned, l.Decompressions = bs.scanned.Load(), bs.decomp.Load()
	return l
}

// add charges engine work as it is performed.
func (bs *BudgetState) add(scannedBytes, decompressions int64) {
	for m := bs; m != nil; m = m.parent {
		if scannedBytes > 0 {
			m.scanned.Add(scannedBytes)
		}
		if decompressions > 0 {
			m.decomp.Add(decompressions)
		}
	}
}

// Err returns ErrBudgetExceeded (wrapped with the blown cap) once any cap
// of the meter or an ancestor has been reached, nil before that.
func (bs *BudgetState) Err() error {
	for m := bs; m != nil; m = m.parent {
		if c := m.budget.MaxScannedBytes; c > 0 && m.scanned.Load() >= c {
			return fmt.Errorf("%w: scanned %d bytes of a %d-byte cap", ErrBudgetExceeded, m.scanned.Load(), c)
		}
		if c := m.budget.MaxDecompressions; c > 0 && m.decomp.Load() >= c {
			return fmt.Errorf("%w: %d decompressions of a cap of %d", ErrBudgetExceeded, m.decomp.Load(), c)
		}
	}
	return nil
}

// Fraction is the consumed share of the tighter cap, clamped to [0, 1]; 0
// when nothing is capped.
func (bs *BudgetState) Fraction() float64 {
	if bs == nil {
		return 0
	}
	frac := 0.0
	if c := bs.budget.MaxScannedBytes; c > 0 {
		frac = float64(bs.scanned.Load()) / float64(c)
	}
	if c := bs.budget.MaxDecompressions; c > 0 {
		frac = max(frac, float64(bs.decomp.Load())/float64(c))
	}
	return min(frac, 1)
}

// AddBlocks records archive blocks: planned (each archive adds its block
// count as its search starts), and searched or skipped as each is decided.
// Counts are never negative.
func (bs *BudgetState) AddBlocks(total, searched, skipped int64) {
	bs.fold(Ledger{Blocks: total, BlocksSearched: searched, BlocksSkipped: skipped})
}

// SetStage raises the stage of the meter and its ancestors; lowering is
// ignored.
func (bs *BudgetState) SetStage(s Stage) {
	for m := bs; m != nil; m = m.parent {
		for {
			cur := m.stage.Load()
			if int32(s) <= cur || m.stage.CompareAndSwap(cur, int32(s)) {
				break
			}
		}
	}
}

// Stage returns the highest stage set so far.
func (bs *BudgetState) Stage() Stage {
	if bs == nil {
		return StageQueued
	}
	return Stage(bs.stage.Load())
}

// ReadHook is called with the active query's context before each capsule
// payload fetch (and, at the archive layer, before each block open). The
// production hook is nil; tests install latency and stall injectors from
// internal/faultinject here to prove a stalled read is cancelled. A
// non-nil error aborts the read with that error.
type ReadHook func(ctx context.Context) error

// checkpoint is the cooperative gate called before each capsule scan or
// payload fetch and per verified candidate: it surfaces context
// cancellation and an exhausted budget. Callers must hold st.mu; outside a
// query it is a no-op.
func (st *Store) checkpoint() error {
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			return err
		}
	}
	return st.en.meter.Err()
}

// scanned counts one capsule scan over n payload bytes on the running
// search's meter.
func (st *Store) scanned(n int) {
	if m := st.en.meter; m != nil {
		m.own.CapsuleScans++
		m.add(int64(n), 0)
	}
}

// read is the one door to capsule bytes no cache holds: the read hook
// (latency/fault injection), the checkpoint, then fetch, whose
// decompressions are charged to the running search's meter. A cached
// payload is not a read.
func (st *Store) read(fetch func() ([]byte, error)) ([]byte, error) {
	if st.readHook != nil {
		ctx := st.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		if err := st.readHook(ctx); err != nil {
			return nil, err
		}
	}
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	d0 := st.box.Decompressions
	p, err := fetch()
	st.en.meter.add(0, int64(st.box.Decompressions-d0))
	return p, err
}

// isInterrupt reports whether err is a cooperative stop: context
// cancellation, deadline expiry, or budget exhaustion.
func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrBudgetExceeded)
}

// IsInterrupt reports whether err is a cooperative stop — context
// cancellation, deadline expiry, or budget exhaustion — as opposed to a
// data fault. The archive layer uses it to keep cancelled blocks out of
// the damage quarantine.
func IsInterrupt(err error) bool { return isInterrupt(err) }
