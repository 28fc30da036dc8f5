package core

import "testing"

// TestQueryTracedGolden pins the deterministic part of a query trace —
// span names in order plus every counter attribute — for a fixed input.
// Timings are excluded (Trace.Outline). If a change to the filter or
// verify machinery moves these numbers, the golden documents exactly what
// work profile changed.
func TestQueryTracedGolden(t *testing.T) {
	lines := genBlock(42, 500)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())

	res, tr, err := st.QueryTraced("ERROR AND state:ERR#404")
	if err != nil {
		t.Fatal(err)
	}
	const want = `query lines=502 cache_hit=0 matches=27
  parse
  filter candidates=27 stamp_admits=2 stamp_skips=42 capsule_scans=2 scan_cache_hits=0 bytes_scanned=74 decompressions=2
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
	_, tr2, err := st.QueryTraced("ERROR AND state:ERR#404")
	if err != nil {
		t.Fatal(err)
	}
	const wantCached = "query lines=502 cache_hit=1 matches=27\n"
	if got := tr2.Outline(); got != wantCached {
		t.Errorf("cached trace outline:\n%s\nwant:\n%s", got, wantCached)
	}
}

// TestQueryTracedMatchesQuery checks the traced and untraced paths return
// identical results, and that a nil trace is never handed back.
func TestQueryTracedMatchesQuery(t *testing.T) {
	lines := genBlock(7, 300)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	for _, q := range testQueries {
		res, err := st.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		st2, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
		resT, tr, err := st2.QueryTraced(q)
		if err != nil {
			t.Fatalf("QueryTraced(%q): %v", q, err)
		}
		if tr == nil {
			t.Fatalf("QueryTraced(%q): nil trace", q)
		}
		if len(res.Lines) != len(resT.Lines) {
			t.Fatalf("QueryTraced(%q) = %d lines, Query = %d", q, len(resT.Lines), len(res.Lines))
		}
		for i := range res.Lines {
			if res.Lines[i] != resT.Lines[i] {
				t.Fatalf("QueryTraced(%q) line %d = %d, want %d", q, i, resT.Lines[i], res.Lines[i])
			}
		}
	}
}
