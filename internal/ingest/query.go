package ingest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
// The sealed segments fan out over o.Workers goroutines (0 = GOMAXPROCS),
// the calling goroutine among them once it has scanned the raw tail, and
// each segment's archive searches its blocks one at a time: a query never
// runs on more than Workers goroutines. Every segment's answer merges in
// segment order, so the result is the same for every worker count. The
// budget bounds the whole query: once it is spent no further sealed
// segment starts (the raw tail costs no budgeted work and is still
// scanned), segments already running stop at their next checkpoint, and
// the answer is a verified-exact subset flagged Partial. A cancelled ctx
// stops the same way, and Search returns its error once every worker has
// exited. A trace (named "stream-query") collects every segment's block
// spans, their totals summed, and one raw_tail span per unsealed segment.
// Result.Damaged lists sealed regions lost to storage corruption in
// stream-global lines; such a result, like one an unreadable segment cut
// short, is Partial (reason "storage"): its matches are verified exact,
// later ones may be missing — degraded, never wrong.
func (st *Stream) Search(ctx context.Context, command string, o core.SearchOpts) (*core.Result, error) {
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	views := st.snapshot()
	outs := st.searchAll(ctx, views, expr, command, o)
	if err := ctx.Err(); err != nil {
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
	for i, v := range views {
		out := outs[i]
		switch {
		case out.err != nil:
			return nil, out.err
		case out.cut != nil:
			res.Partial, res.PartialReason = true, out.cut.Error()
		case out.shed != nil:
			// The segment is unreadable right now; every line it holds is
			// reported as damage and the result degrades to partial instead
			// of failing the whole query. Matches from every other segment
			// stay verified-exact: degraded, never wrong.
			res.Damaged = append(res.Damaged, core.BlockError{
				Block: int(v.sg.seq), FirstLine: v.base, NumLines: v.n, Err: out.shed,
			})
			degrade()
		default:
			sr := out.res
			res.Matches += sr.Matches
			res.Decompressions += sr.Decompressions
			for k, ln := range sr.Lines {
				res.Lines = append(res.Lines, v.base+ln)
				res.Entries = append(res.Entries, sr.Entries[k])
			}
			for _, d := range sr.Damaged {
				d.FirstLine += v.base
				res.Damaged = append(res.Damaged, d)
			}
			if len(sr.Damaged) > 0 {
				// Damaged blocks inside a sealed segment are the same
				// degradation as an unreadable segment, just finer-grained:
				// the result is a verified-exact subset, flagged as such.
				degrade()
			}
			if sr.Partial {
				res.Partial = true
				res.PartialReason = sr.PartialReason
			}
		}
	}
	o.Trace.SetName("stream-query")
	return res, nil
}

// segOutcome is what searching one segment came to: an answer in
// segment-local lines, a budget cut before it started, an unreadable
// segment to shed as damage, or an error that fails the whole query (the
// caller gave up).
type segOutcome struct {
	res       *core.Result
	cut, shed error
	err       error
}

// searchAll searches every view and returns their outcomes, indexed like
// views. The sealed segments go to a bounded worker set: Workers-1 extra
// goroutines, and the calling goroutine once it has scanned the raw tail.
// Each takes the next segment in order and starts none once ctx or the
// budget is done, so one worker is exactly a serial loop over the segments.
func (st *Stream) searchAll(ctx context.Context, views []segView, expr query.Expr, command string, o core.SearchOpts) []segOutcome {
	outs := make([]segOutcome, len(views))
	var sealed []int
	for i, v := range views {
		if v.sealed {
			sealed = append(sealed, i)
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	o.Workers = 1 // the segments are the parallelism; their blocks run serially
	var next atomic.Int64
	work := func() {
		for k := int(next.Add(1)) - 1; k < len(sealed); k = int(next.Add(1)) - 1 {
			outs[sealed[k]] = st.searchSegment(ctx, views[sealed[k]], command, o)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(sealed)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	for i, v := range views {
		if !v.sealed {
			outs[i] = scanRaw(ctx, v, expr, o)
		}
	}
	work()
	wg.Wait()
	return outs
}

// searchSegment searches one sealed segment.
func (st *Stream) searchSegment(ctx context.Context, v segView, command string, o core.SearchOpts) segOutcome {
	if err := ctx.Err(); err != nil {
		return segOutcome{err: err}
	}
	if err := o.Budget.Err(); err != nil {
		return segOutcome{cut: err}
	}
	if v.sg.quarantined {
		return segOutcome{shed: errQuarantined}
	}
	a, err := st.archive(ctx, v.sg)
	if err != nil {
		if ctx.Err() != nil || blobstore.Classify(err) == blobstore.ClassAborted {
			return segOutcome{err: err} // the caller gave up; nothing to degrade
		}
		return segOutcome{shed: err}
	}
	res, err := a.Search(ctx, command, o)
	return segOutcome{res: res, err: err}
}

// scanRaw matches every line of one raw segment under a raw_tail span.
func scanRaw(ctx context.Context, v segView, expr query.Expr, o core.SearchOpts) segOutcome {
	span := o.Trace.StartSpan("raw_tail").Attr("segment", int64(v.sg.seq))
	res := &core.Result{}
	bytes := 0
	for i, line := range v.lines {
		if i%1024 == 1023 {
			if err := ctx.Err(); err != nil {
				return segOutcome{err: err}
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
	return segOutcome{res: res}
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
