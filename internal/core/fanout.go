package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// FanOut runs unit(0) … unit(n-1), the independent parts of one query — an
// archive's blocks, a stream's segments — on at most workers goroutines (0 =
// GOMAXPROCS): the calling goroutine and up to workers-1 more, each taking
// the next unit by an atomic index until none is left, so units start in
// index order. It returns once every unit has. It checks nothing itself:
// each unit checks ctx and the budget before it starts work, so a cancelled
// or spent query drains its remaining units at no cost, and workers 1 is a
// plain loop on the calling goroutine.
func FanOut(workers, n int, unit func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			unit(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Append merges part, the answer of one part of a larger query (a block of
// an archive, a segment of a stream) numbered from 0 at line base of r, into
// r: its lines and damage shift by base, its matches and decompressions add,
// and a Partial part makes r Partial, the first reason kept. Parts are
// appended in line order; a nil part adds nothing.
func (r *Result) Append(part *Result, base int) {
	if part == nil {
		return
	}
	r.Matches += part.Matches
	r.Decompressions += part.Decompressions
	for i, line := range part.Lines {
		r.Lines = append(r.Lines, base+line)
		r.Entries = append(r.Entries, part.Entries[i])
	}
	for _, d := range part.Damaged {
		d.FirstLine += base
		r.Damaged = append(r.Damaged, d)
	}
	if part.Partial {
		r.Partial = true
		if r.PartialReason == "" {
			r.PartialReason = part.PartialReason
		}
	}
}

// Settle finishes a merged result under the query's meter: its damage is put
// in line order, and a spent budget marks it Partial and names the reason
// over any a part gave.
func (r *Result) Settle(bs *BudgetState) {
	sort.SliceStable(r.Damaged, func(i, j int) bool { return r.Damaged[i].FirstLine < r.Damaged[j].FirstLine })
	if err := bs.Err(); err != nil {
		r.Partial, r.PartialReason = true, err.Error()
	}
}
