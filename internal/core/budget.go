package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
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

// BudgetState is one query's meter. It counts the query's work — payload
// bytes scanned and capsule payloads decompressed, added by the Store where
// the work happens; the blocks its archives planned, searched and skipped;
// the stage it is in — and stops the query once the work reaches a cap of
// its Budget. When a query ends its counters equal Result.Decompressions
// and the bytes_scanned of its trace; while it runs, the live view reads
// them. One state is shared by every block (and archive) a query touches,
// so the caps bound the whole query, not each block.
//
// All methods are safe for concurrent use and counters only ever grow, so
// a reading never runs backwards. A nil *BudgetState is unlimited, counts
// nothing and is valid everywhere one is accepted.
type BudgetState struct {
	budget         Budget
	scanned        atomic.Int64
	decomp         atomic.Int64
	blocksTotal    atomic.Int64
	blocksSearched atomic.Int64
	blocksSkipped  atomic.Int64
	stage          atomic.Int32
}

// NewBudgetState starts a meter under a budget; a zero Budget counts
// without capping.
func NewBudgetState(b Budget) *BudgetState { return &BudgetState{budget: b} }

// add records engine work as it is performed.
func (bs *BudgetState) add(scannedBytes, decompressions int64) {
	if bs == nil {
		return
	}
	if scannedBytes > 0 {
		bs.scanned.Add(scannedBytes)
	}
	if decompressions > 0 {
		bs.decomp.Add(decompressions)
	}
}

// Err returns ErrBudgetExceeded (wrapped with the blown cap) once any cap
// has been reached, nil before that.
func (bs *BudgetState) Err() error {
	if bs == nil {
		return nil
	}
	if m := bs.budget.MaxScannedBytes; m > 0 && bs.scanned.Load() >= m {
		return fmt.Errorf("%w: scanned %d bytes of a %d-byte cap", ErrBudgetExceeded, bs.scanned.Load(), m)
	}
	if m := bs.budget.MaxDecompressions; m > 0 && bs.decomp.Load() >= m {
		return fmt.Errorf("%w: %d decompressions of a cap of %d", ErrBudgetExceeded, bs.decomp.Load(), m)
	}
	return nil
}

// ScannedBytes returns the payload bytes scanned so far.
func (bs *BudgetState) ScannedBytes() int64 {
	if bs == nil {
		return 0
	}
	return bs.scanned.Load()
}

// Decompressions returns the capsule payloads decompressed so far.
func (bs *BudgetState) Decompressions() int64 {
	if bs == nil {
		return 0
	}
	return bs.decomp.Load()
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
	if bs == nil {
		return
	}
	bs.blocksTotal.Add(total)
	bs.blocksSearched.Add(searched)
	bs.blocksSkipped.Add(skipped)
}

// Blocks returns the block counts recorded so far.
func (bs *BudgetState) Blocks() (total, searched, skipped int64) {
	if bs == nil {
		return 0, 0, 0
	}
	return bs.blocksTotal.Load(), bs.blocksSearched.Load(), bs.blocksSkipped.Load()
}

// SetStage raises the stage; lowering is ignored.
func (bs *BudgetState) SetStage(s Stage) {
	if bs == nil {
		return
	}
	for {
		cur := bs.stage.Load()
		if int32(s) <= cur || bs.stage.CompareAndSwap(cur, int32(s)) {
			return
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

// interruptState is the running query's context and meter, installed on
// the Store (under its mutex) for the duration of one query.
type interruptState struct {
	ctx   context.Context
	meter *BudgetState
}

// checkpoint is the cooperative gate called before each capsule scan or
// payload fetch and per verified candidate: it surfaces context
// cancellation and an exhausted budget. Callers must hold st.mu during a
// query; outside a query it is a no-op.
func (st *Store) checkpoint() error {
	in := st.intr
	if in == nil {
		return nil
	}
	if in.ctx != nil {
		if err := in.ctx.Err(); err != nil {
			return err
		}
	}
	return in.meter.Err()
}

// charge adds work the store has just performed to the running query's
// meter.
func (st *Store) charge(scannedBytes, decompressions int) {
	if st.intr != nil {
		st.intr.meter.add(int64(scannedBytes), int64(decompressions))
	}
}

// scanned counts one capsule scan over n payload bytes: in the store's
// stats, which the trace reads, and on the query's meter.
func (st *Store) scanned(n int) {
	st.stats.scans++
	st.stats.bytesScanned += n
	st.charge(n, 0)
}

// read is the one door to capsule bytes no cache holds: the read hook
// (latency/fault injection), the checkpoint, then fetch, whose
// decompressions are charged to the query's meter. A cached payload is not
// a read.
func (st *Store) read(fetch func() ([]byte, error)) ([]byte, error) {
	if st.readHook != nil {
		ctx := context.Background()
		if st.intr != nil && st.intr.ctx != nil {
			ctx = st.intr.ctx
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
	st.charge(0, st.box.Decompressions-d0)
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
