package ingest

import (
	"context"
	"errors"
	"fmt"

	"loggrep/internal/archive"
	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/query"
)

// errQuarantined reports a sealed segment quarantined at replay: its
// archive was unreadable or corrupt and no WAL survived to rebuild it.
var errQuarantined = errors.New("ingest: segment quarantined at replay (archive unreadable, no WAL fallback)")

// Result is a stream query result with stream-global line numbers:
// segments in ascending sequence order, lines numbered from 0 at the
// stream's first ever line. Sealing replaces a raw segment with its
// archive in place, so a line's number never changes.
type Result struct {
	Lines   []int
	Entries []string
	// Damaged lists sealed-segment regions lost to storage corruption,
	// line ranges rebased to stream-global numbers.
	Damaged []archive.BlockError
	// Partial marks a result cut short by the work budget, a raw-tail
	// scan abort, or a sealed segment left unreadable by storage faults
	// (PartialReason "storage"); returned matches are verified exact,
	// later ones may be missing — degraded, never wrong.
	Partial       bool
	PartialReason string
}

// segView is an immutable snapshot of one segment for a query: either a
// sealed segment (its archive fetched through the Manager's bounded
// resident cache at use time, reloading from disk after an eviction) or
// a raw line slice (raw segments only ever append, so reading a prefix
// outside the lock is safe).
type segView struct {
	base   int
	n      int // line count at snapshot time
	sealed bool
	sg     *segment // sealed only; seq and sealed fields are frozen
	lines  []string
}

// snapshot captures the stream's segments and line bases at one instant.
func (st *Stream) snapshot() []segView {
	st.mu.Lock()
	defer st.mu.Unlock()
	views := make([]segView, 0, len(st.segs))
	base := 0
	for _, sg := range st.segs {
		v := segView{base: base, n: sg.lineCount(), sealed: sg.sealed, sg: sg}
		if !sg.sealed {
			v.lines = sg.lines[:len(sg.lines):len(sg.lines)]
		}
		views = append(views, v)
		base += v.n
	}
	return views
}

// Query runs a grep-like command over the whole stream — sealed archive
// segments (index-pruned, stamp-filtered, budgeted) and the raw tail
// (scanned with the exact match semantics) — and merges matches in
// stream-global line order. The view is consistent: every line
// acknowledged before the call is searched exactly once, whether it has
// been sealed yet or not. The budget bounds the whole query: one state is
// charged by every sealed segment, and once it is spent the remaining
// sealed segments go unsearched (the raw tail costs no budgeted work and
// is still scanned). workers bounds per-segment block parallelism (0 =
// GOMAXPROCS).
func (st *Stream) Query(ctx context.Context, command string, workers int, budget core.Budget) (*Result, error) {
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	bs := core.NewBudgetState(budget)
	degraded := false
	shed := func(v segView, err error) {
		// The segment is unreadable right now; every line it holds is
		// reported as damage and the result degrades to partial instead
		// of failing the whole query. Matches from every other segment
		// stay verified-exact: degraded, never wrong.
		res.Damaged = append(res.Damaged, archive.BlockError{
			Block: int(v.sg.seq), FirstLine: v.base, NumLines: v.n, Err: err,
		})
		res.Partial = true
		res.PartialReason = "storage"
		if !degraded {
			degraded = true
			blobstore.FaultShedQueries.Inc()
		}
	}
	for _, v := range st.snapshot() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if v.sealed {
			if err := bs.Err(); err != nil {
				res.Partial, res.PartialReason = true, err.Error()
				continue
			}
			if v.sg.quarantined {
				shed(v, errQuarantined)
				continue
			}
			a, err := st.archive(ctx, v.sg)
			if err != nil {
				if ctx.Err() != nil || blobstore.Classify(err) == blobstore.ClassAborted {
					return nil, err // the caller gave up; nothing to degrade
				}
				shed(v, err)
				continue
			}
			ar, err := a.QueryContext(ctx, command, workers, bs)
			if err != nil {
				return nil, err
			}
			for i, ln := range ar.Lines {
				res.Lines = append(res.Lines, v.base+ln)
				res.Entries = append(res.Entries, ar.Entries[i])
			}
			for _, d := range ar.Damaged {
				d.FirstLine += v.base
				res.Damaged = append(res.Damaged, d)
			}
			if len(ar.Damaged) > 0 {
				// Damaged blocks inside a sealed segment are the same
				// degradation as an unreadable segment, just finer-grained:
				// the result is a verified-exact subset, flagged as such.
				res.Partial = true
				res.PartialReason = "storage"
				if !degraded {
					degraded = true
					blobstore.FaultShedQueries.Inc()
				}
			}
			if ar.Partial {
				res.Partial = true
				res.PartialReason = ar.PartialReason
			}
			continue
		}
		for i, line := range v.lines {
			if i%1024 == 1023 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if expr.Match(line) {
				res.Lines = append(res.Lines, v.base+i)
				res.Entries = append(res.Entries, line)
			}
		}
	}
	return res, nil
}

// Entry reconstructs one line by stream-global number.
func (st *Stream) Entry(line int) (string, error) {
	if line < 0 {
		return "", fmt.Errorf("ingest: line %d out of range", line)
	}
	for _, v := range st.snapshot() {
		if line < v.base+v.n {
			if v.sealed {
				a, err := st.archive(context.Background(), v.sg)
				if err != nil {
					return "", err
				}
				return a.Entry(line - v.base)
			}
			return v.lines[line-v.base], nil
		}
	}
	return "", fmt.Errorf("ingest: line %d out of range", line)
}
