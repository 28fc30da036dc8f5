package loggrep_test

import (
	"context"
	"strings"
	"testing"

	"loggrep"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/query"
)

// TestPublicAPIRoundTrip exercises the exported surface end to end.
func TestPublicAPIRoundTrip(t *testing.T) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(2, 3000)
	data := loggrep.Compress(block, loggrep.DefaultOptions())
	if len(data) >= len(block) {
		t.Fatalf("no compression: %d -> %d", len(block), len(data))
	}
	st, err := loggrep.Open(data, loggrep.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	want := logparse.SplitLines(block)
	if len(got) != len(want) {
		t.Fatalf("lines %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], want[i])
		}
	}
}

// TestTable1Queries: every log type's Table-1 query, LogGrep vs the naive
// oracle — the end-to-end claim of the paper (exact results).
func TestTable1Queries(t *testing.T) {
	for _, lt := range loggen.All() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			block := lt.Block(4, 2500)
			lines := logparse.SplitLines(block)
			st, err := loggrep.Open(loggrep.Compress(block, loggrep.DefaultOptions()), loggrep.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Search(context.Background(), lt.Query, loggrep.SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want := oracle(t, lines, lt.Query)
			if len(res.Lines) != len(want) {
				t.Fatalf("query %q: %d matches, want %d", lt.Query, len(res.Lines), len(want))
			}
			for i := range want {
				if res.Lines[i] != want[i] || res.Entries[i] != lines[want[i]] {
					t.Fatalf("query %q: mismatch at %d", lt.Query, i)
				}
			}
			if len(want) == 0 {
				t.Fatalf("query %q matched nothing — workload broken", lt.Query)
			}
		})
	}
}

// TestStaticOnlyOptions checks the LogGrep-SP mode is wired through the
// public API.
func TestStaticOnlyOptions(t *testing.T) {
	opts := loggrep.StaticOnlyOptions()
	if !opts.StaticOnly {
		t.Fatal("StaticOnlyOptions not static-only")
	}
	lt, _ := loggen.ByName("Hdfs")
	block := lt.Block(1, 1000)
	st, err := loggrep.Open(loggrep.Compress(block, opts), loggrep.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Search(context.Background(), lt.Query, loggrep.SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) == 0 {
		t.Fatal("SP mode found nothing")
	}
}

func oracle(t *testing.T, lines []string, command string) []int {
	t.Helper()
	expr, err := query.Parse(command)
	if err != nil {
		t.Fatal(err)
	}
	var match func(e query.Expr, l string) bool
	match = func(e query.Expr, l string) bool {
		switch x := e.(type) {
		case *query.And:
			return match(x.L, l) && match(x.R, l)
		case *query.Or:
			return match(x.L, l) || match(x.R, l)
		case *query.Not:
			return !match(x.X, l)
		case *query.Search:
			return x.MatchEntry(l)
		}
		return false
	}
	var out []int
	for i, l := range lines {
		if match(expr, l) {
			out = append(out, i)
		}
	}
	return out
}

// TestDocExampleCompiles keeps the package doc's snippet honest.
func TestDocExampleCompiles(t *testing.T) {
	raw := []byte(strings.Join([]string{
		"2021-01-04 12:00:01 ERROR dst:11.8.4.1 state:500",
		"2021-01-04 12:00:02 INFO dst:11.8.4.2 state:200",
		"2021-01-04 12:00:03 ERROR dst:11.9.4.3 state:503",
	}, "\n") + "\n")
	store, err := loggrep.Open(loggrep.Compress(raw, loggrep.DefaultOptions()), loggrep.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Search(context.Background(), "ERROR AND dst:11.8.* NOT state:503", loggrep.SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 1 || res.Lines[0] != 0 {
		t.Fatalf("doc example result: %v", res.Lines)
	}
}

// TestArchivePublicAPI exercises the multi-block surface end to end.
func TestArchivePublicAPI(t *testing.T) {
	lt, _ := loggen.ByName("L")
	stream := lt.Block(6, 5000)
	opts := loggrep.DefaultArchiveOptions()
	opts.BlockBytes = 100 << 10
	data, err := loggrep.CompressArchive(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !loggrep.IsArchive(data) {
		t.Fatal("IsArchive = false on an archive")
	}
	if loggrep.IsArchive(loggrep.Compress(stream, loggrep.DefaultOptions())) {
		t.Fatal("IsArchive = true on a box")
	}
	a, err := loggrep.OpenArchive(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Search(context.Background(), lt.Query, loggrep.SearchOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lines := logparse.SplitLines(stream)
	want := oracle(t, lines, lt.Query)
	if len(res.Lines) != len(want) {
		t.Fatalf("archive query: %d matches, want %d", len(res.Lines), len(want))
	}
	for i := range want {
		if res.Lines[i] != want[i] || res.Entries[i] != lines[want[i]] {
			t.Fatalf("archive query mismatch at %d", i)
		}
	}
}

// TestRawQueryPublicAPI covers the not-yet-compressed path.
func TestRawQueryPublicAPI(t *testing.T) {
	lt, _ := loggen.ByName("P")
	block := lt.Block(3, 1500)
	lines, entries, err := loggrep.RawQuery(block, lt.Query)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, logparse.SplitLines(block), lt.Query)
	if len(lines) != len(want) {
		t.Fatalf("RawQuery = %d matches, want %d", len(lines), len(want))
	}
	if len(entries) != len(lines) {
		t.Fatal("entries/lines mismatch")
	}
}
