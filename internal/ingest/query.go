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
// The options go to every sealed segment's archive unchanged. The budget
// bounds the whole query: once it is spent the remaining sealed segments go
// unsearched (the raw tail costs no budgeted work and is still scanned). A
// trace (named "stream-query") collects every segment's block spans, their
// totals summed, and one raw_tail span per unsealed segment. Result.Damaged
// lists sealed regions lost to storage corruption in stream-global lines;
// such a result, like one an unreadable segment cut short, is Partial
// (reason "storage"): its matches are verified exact, later ones may be
// missing — degraded, never wrong.
func (st *Stream) Search(ctx context.Context, command string, o core.SearchOpts) (*core.Result, error) {
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	res := &core.Result{}
	degraded := false
	degrade := func() {
		res.Partial = true
		res.PartialReason = "storage"
		if !degraded {
			degraded = true
			blobstore.FaultShedQueries.Inc()
		}
	}
	shed := func(v segView, err error) {
		// The segment is unreadable right now; every line it holds is
		// reported as damage and the result degrades to partial instead
		// of failing the whole query. Matches from every other segment
		// stay verified-exact: degraded, never wrong.
		res.Damaged = append(res.Damaged, core.BlockError{
			Block: int(v.sg.seq), FirstLine: v.base, NumLines: v.n, Err: err,
		})
		degrade()
	}
	for _, v := range st.snapshot() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if v.sealed {
			if err := o.Budget.Err(); err != nil {
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
			ar, err := a.Search(ctx, command, o)
			if err != nil {
				return nil, err
			}
			res.Matches += ar.Matches
			res.Decompressions += ar.Decompressions
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
				degrade()
			}
			if ar.Partial {
				res.Partial = true
				res.PartialReason = ar.PartialReason
			}
			continue
		}
		span := o.Trace.StartSpan("raw_tail").Attr("segment", int64(v.sg.seq))
		matches := 0
		for i, line := range v.lines {
			if i%1024 == 1023 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if !expr.Match(line) {
				continue
			}
			matches++
			if !o.CountOnly {
				res.Lines = append(res.Lines, v.base+i)
				res.Entries = append(res.Entries, line)
			}
		}
		res.Matches += matches
		span.Attr("lines", int64(v.n)).Attr("matches", int64(matches)).End()
		o.Trace.AddAttr("matches", int64(matches))
	}
	o.Trace.SetName("stream-query")
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
