package ingest

import (
	"context"
	"errors"
	"fmt"

	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/query"
)

// errQuarantined reports a sealed segment quarantined at replay: its
// archive was unreadable or corrupt and no WAL survived to rebuild it.
var errQuarantined = errors.New("ingest: segment quarantined at replay (archive unreadable, no WAL fallback)")

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

// Search runs a grep-like command over the whole stream — sealed archive
// segments (index-pruned, stamp-filtered, budgeted) and the raw tail
// (scanned with the exact match semantics) — and merges matches in
// stream-global line order: segments in ascending sequence order, lines
// numbered from 0 at the stream's first ever line. Sealing replaces a raw
// segment with its archive in place, so a line's number never changes, and
// the view is consistent: every line acknowledged before the call is
// searched exactly once, whether it has been sealed yet or not.
//
// The segments fan out on core.FanOut over o.Workers goroutines (0 =
// GOMAXPROCS), the raw tail handed out first and the calling goroutine
// among them, and each segment's archive searches its blocks one at a
// time: a query never runs on more than Workers goroutines, and Workers 1
// runs it on the caller. Every segment's answer merges in segment order
// (core.Result.Append), so the result is the same for every worker count.
// The budget bounds the whole query: once it is spent no further sealed
// segment starts (the raw tail costs no budgeted work and is still
// scanned), segments already running stop at their next checkpoint, and
// the answer is a verified-exact subset flagged Partial. A cancelled ctx
// stops the same way, and Search returns its error once every worker has
// exited. A trace (named "stream-query") collects every segment's block
// spans, their totals summed, and one raw_tail span per unsealed segment.
// Result.Damaged lists sealed regions lost to storage corruption in
// stream-global lines; such a result, like one an unreadable segment cut
// short, is Partial (reason "storage" unless the budget or a segment names
// another): its matches are verified exact, later ones may be missing —
// degraded, never wrong.
func (st *Stream) Search(ctx context.Context, command string, o core.SearchOpts) (*core.Result, error) {
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	views := st.snapshot()
	order := make([]int, 0, len(views))
	for _, sealed := range []bool{false, true} {
		for i, v := range views {
			if v.sealed == sealed {
				order = append(order, i)
			}
		}
	}
	workers := o.Workers
	o.Workers = 1 // the segments are the parallelism; their blocks run serially
	parts, errs := make([]*core.Result, len(views)), make([]error, len(views))
	core.FanOut(workers, len(order), func(k int) {
		i := order[k]
		parts[i], errs[i] = st.searchView(ctx, views[i], expr, command, o)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &core.Result{}
	for i, v := range views {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.Append(parts[i], v.base)
	}
	res.Settle(o.Budget)
	if len(res.Damaged) > 0 {
		// Damaged blocks and unreadable segments degrade the result to a
		// verified-exact subset, flagged as such.
		blobstore.FaultShedQueries.Inc()
		if !res.Partial {
			res.Partial, res.PartialReason = true, "storage"
		}
	}
	o.Trace.SetName("stream-query")
	return res, nil
}

// searchView is one segment's unit of the fan-out: its answer in
// segment-local lines, or an error that fails the whole query (the caller
// gave up). A sealed segment the budget cuts before it starts answers
// Partial; one that is unreadable right now answers with every line it
// holds as damage instead of failing the query, so matches from every
// other segment stay verified-exact: degraded, never wrong.
func (st *Stream) searchView(ctx context.Context, v segView, expr query.Expr, command string, o core.SearchOpts) (*core.Result, error) {
	if !v.sealed {
		return scanRaw(ctx, v, expr, o)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := o.Budget.Err(); err != nil {
		return &core.Result{Partial: true, PartialReason: err.Error()}, nil
	}
	shed := func(err error) *core.Result {
		return &core.Result{Damaged: []core.BlockError{{Block: int(v.sg.seq), NumLines: v.n, Err: err}}}
	}
	if v.sg.quarantined {
		return shed(errQuarantined), nil
	}
	a, err := st.archive(ctx, v.sg)
	if err != nil {
		if ctx.Err() != nil || blobstore.Classify(err) == blobstore.ClassAborted {
			return nil, err // the caller gave up; nothing to degrade
		}
		return shed(err), nil
	}
	return a.Search(ctx, command, o)
}

// scanRaw matches every line of one raw segment under a raw_tail span.
func scanRaw(ctx context.Context, v segView, expr query.Expr, o core.SearchOpts) (*core.Result, error) {
	span := o.Trace.StartSpan("raw_tail").Attr("segment", int64(v.sg.seq))
	res := &core.Result{}
	bytes := 0
	for i, line := range v.lines {
		if i%1024 == 1023 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		bytes += len(line)
		if !expr.Match(line) {
			continue
		}
		res.Matches++
		if !o.CountOnly {
			res.Lines = append(res.Lines, i)
			res.Entries = append(res.Entries, line)
		}
	}
	span.Attr("lines", int64(v.n)).Attr("bytes", int64(bytes)).Attr("matches", int64(res.Matches)).End()
	o.Trace.AddAttr("matches", int64(res.Matches))
	return res, nil
}

// Entry reconstructs one line by stream-global number.
func (st *Stream) Entry(ctx context.Context, line int) (string, error) {
	if line < 0 {
		return "", fmt.Errorf("ingest: line %d out of range", line)
	}
	for _, v := range st.snapshot() {
		if line < v.base+v.n {
			if v.sealed {
				a, err := st.archive(ctx, v.sg)
				if err != nil {
					return "", err
				}
				return a.Entry(ctx, line-v.base)
			}
			return v.lines[line-v.base], nil
		}
	}
	return "", fmt.Errorf("ingest: line %d out of range", line)
}
