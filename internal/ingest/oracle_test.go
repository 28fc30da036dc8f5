package ingest

import (
	"context"
	"testing"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/query"
)

// TestQueryOracle proves a query over an ingest stream — sealed archive
// segments plus the raw WAL tail, mixed — returns exactly what a plain
// grep over everything ever ingested returns: same matches, same global
// line numbers, same text. This is the ingest counterpart of the archive
// oracle tests.
func TestQueryOracle(t *testing.T) {
	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()

	// Realistic lines from the production generators, ingested in batches
	// with seals in between so the stream is sealed+sealed+raw.
	var all []string
	seed := int64(1)
	for _, name := range []string{"A", "C", "E"} {
		lt, ok := loggen.ByName(name)
		if !ok {
			t.Fatalf("no generator %q", name)
		}
		lines := lt.Lines(seed, 1200)
		seed++
		for i := 0; i < len(lines); i += 400 {
			if err := m.Append("acme", "app", lines[i:i+400]); err != nil {
				t.Fatal(err)
			}
		}
		all = append(all, lines...)
		if name != "E" { // leave the last generator's lines as raw tail
			if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := m.Lookup("acme/app")
	if info := m.Snapshot()[0]; info.SealedSegs < 2 || info.RawSegs == 0 {
		t.Fatalf("want mixed sealed+raw stream, got %+v", info)
	}

	queries := []string{
		"ERROR",
		"WARNING OR ERROR",
		"status:5*",
		"GET AND /api/*",
		"ERROR NOT timeout",
		"(ERROR OR WARNING) AND NOT retry",
		"no-such-needle-anywhere",
	}
	for _, lt := range loggen.Production() {
		if lt.Query != "" {
			queries = append(queries, lt.Query)
		}
	}
	for _, q := range queries {
		expr, err := query.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		var wantLines []int
		var wantText []string
		for i, line := range all {
			if oracleMatch(expr, line) {
				wantLines = append(wantLines, i)
				wantText = append(wantText, line)
			}
		}
		res, err := st.Search(context.Background(), q, core.SearchOpts{})
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if res.Partial || len(res.Damaged) != 0 {
			t.Fatalf("query %q: partial=%v damaged=%v", q, res.Partial, res.Damaged)
		}
		if len(res.Lines) != len(wantLines) {
			t.Errorf("query %q: %d matches, oracle says %d", q, len(res.Lines), len(wantLines))
			continue
		}
		for i := range wantLines {
			if res.Lines[i] != wantLines[i] || res.Entries[i] != wantText[i] {
				t.Fatalf("query %q match %d: got (%d, %q), want (%d, %q)",
					q, i, res.Lines[i], res.Entries[i], wantLines[i], wantText[i])
			}
		}
	}
}

// oracleMatch is the naive reference evaluator: a recursive walk using
// query.MatchEntry for leaves, structurally independent of the ingest and
// archive query paths.
func oracleMatch(e query.Expr, line string) bool {
	switch x := e.(type) {
	case *query.And:
		return oracleMatch(x.L, line) && oracleMatch(x.R, line)
	case *query.Or:
		return oracleMatch(x.L, line) || oracleMatch(x.R, line)
	case *query.Not:
		return !oracleMatch(x.X, line)
	case *query.Search:
		return x.MatchEntry(line)
	default:
		return false
	}
}

// TestQueryOracleAfterReplay re-runs a spot-check query after a crash and
// replay, proving the oracle property is durable, not just in-memory.
func TestQueryOracleAfterReplay(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, testConfig(dir))
	lt, _ := loggen.ByName("B")
	all := lt.Lines(7, 900)
	if err := m.Append("acme", "app", all[:600]); err != nil {
		t.Fatal(err)
	}
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}
	if err := m.Append("acme", "app", all[600:]); err != nil {
		t.Fatal(err)
	}
	m.abandon()

	m2, _, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st := m2.Lookup("acme/app")
	for _, q := range []string{"ERROR", lt.Query} {
		if q == "" {
			continue
		}
		expr, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, line := range all {
			if oracleMatch(expr, line) {
				want++
			}
		}
		res, err := st.Search(context.Background(), q, core.SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Lines) != want {
			t.Fatalf("query %q after replay: %d matches, oracle says %d", q, len(res.Lines), want)
		}
	}
}
