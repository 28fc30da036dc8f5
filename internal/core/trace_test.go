package core

import (
	"context"
	"testing"

	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
)

// TestQueryTracedGolden pins the deterministic part of a query trace —
// span names in order plus every counter attribute — for a fixed input.
// Timings are excluded (Trace.Outline). If a change to the filter or
// verify machinery moves these numbers, the golden documents exactly what
// work profile changed.
func TestQueryTracedGolden(t *testing.T) {
	lines := genBlock(42, 500)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())

	res, tr, err := searchTraced(st, "ERROR AND state:ERR#404")
	if err != nil {
		t.Fatal(err)
	}
	const want = `query lines=502 cache_hit=0 matches=27
  parse
  filter candidates=27 groups_dropped_before_decode=11 stamp_admits=2 stamp_skips=10 capsule_scans=2 scan_cache_hits=0 bytes_scanned=74 decompressions=2
  verify candidates_checked=27 matches=27 decompressions=8 line_maps=1
`
	if got := tr.Outline(); got != want {
		t.Errorf("trace outline:\n%s\nwant:\n%s", got, want)
	}
	if res == nil || len(res.Lines) != 27 {
		t.Fatalf("result = %+v", res)
	}

	// The repeated query is answered from the Query Cache: no spans, just
	// the cache_hit marker.
	_, tr2, err := searchTraced(st, "ERROR AND state:ERR#404")
	if err != nil {
		t.Fatal(err)
	}
	const wantCached = "query lines=502 cache_hit=1 matches=27\n"
	if got := tr2.Outline(); got != wantCached {
		t.Errorf("cached trace outline:\n%s\nwant:\n%s", got, wantCached)
	}
}

// TestQueryTracedMatchesQuery checks that a traced and an untraced Search
// return identical results.
func TestQueryTracedMatchesQuery(t *testing.T) {
	lines := genBlock(7, 300)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	for _, q := range testQueries {
		res, err := st.Search(context.Background(), q, SearchOpts{})
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		st2, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
		resT, _, err := searchTraced(st2, q)
		if err != nil {
			t.Fatalf("traced Search(%q): %v", q, err)
		}
		if len(res.Lines) != len(resT.Lines) {
			t.Fatalf("traced Search(%q) = %d lines, untraced = %d", q, len(resT.Lines), len(res.Lines))
		}
		for i := range res.Lines {
			if res.Lines[i] != resT.Lines[i] {
				t.Fatalf("traced Search(%q) line %d = %d, want %d", q, i, resT.Lines[i], res.Lines[i])
			}
		}
	}
}

// TestUntracedSearchAllocations: the options Search takes cost an untraced,
// unbudgeted query nothing. A zero SearchOpts must allocate strictly less
// than the same warm query with a trace and a budget, and a Query Cache hit
// only its Result. For the record (go1.24.0, this block and command): the
// parent commit's context-and-budget entry point (b6f3573) allocated 955
// times per warm uncached query and once per cache hit; Search with zero
// SearchOpts allocates 955 and 1.
func TestUntracedSearchAllocations(t *testing.T) {
	lt, _ := loggen.ByName("A")
	box := Compress(lt.Block(11, 5000), DefaultOptions())
	allocs := func(qopts QueryOptions, opts func() SearchOpts) float64 {
		st, err := Open(box, qopts)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := st.Search(context.Background(), lt.Query, opts()); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(50, run)
	}
	plain := func() SearchOpts { return SearchOpts{} }
	observed := func() SearchOpts {
		return SearchOpts{Trace: obsv.NewTrace("query"), Budget: NewBudgetState(Budget{MaxScannedBytes: 1 << 40})}
	}
	warm, warmObserved := allocs(QueryOptions{DisableCache: true}, plain), allocs(QueryOptions{DisableCache: true}, observed)
	t.Logf("warm uncached query: %v allocations untraced, %v traced and budgeted", warm, warmObserved)
	if warm >= warmObserved {
		t.Errorf("untraced warm query allocates %v, no less than the %v of a traced, budgeted one", warm, warmObserved)
	}
	if hit := allocs(QueryOptions{}, plain); hit > 1 {
		t.Errorf("Query Cache hit allocates %v, want only the Result", hit)
	}
}
