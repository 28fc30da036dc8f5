package loggrep_test

import (
	"context"
	"strings"
	"testing"

	"loggrep"
	"loggrep/internal/archive"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// TestArchiveGrepOracle is the golden end-to-end claim for archives: for
// several log types, a multi-block archive built with a parallel writer
// answers every query with exactly the lines a plain grep over the raw
// stream finds — same line numbers, same entry text — and reconstructs
// the stream byte for byte.
func TestArchiveGrepOracle(t *testing.T) {
	for _, name := range []string{"A", "G", "L"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			lt, ok := loggen.ByName(name)
			if !ok {
				t.Fatalf("log %s missing", name)
			}
			stream := lt.Block(5, 4000)
			lines := logparse.SplitLines(stream)

			opts := loggrep.DefaultArchiveOptions()
			opts.BlockBytes = 64 << 10 // force several blocks
			opts.Workers = 4           // parallel compression must not reorder
			data, err := loggrep.CompressArchive(stream, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, err := loggrep.OpenArchive(data)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumBlocks() < 3 {
				t.Fatalf("only %d blocks — multi-block path not exercised", a.NumBlocks())
			}
			if d := a.Verify(true); d != nil {
				t.Fatalf("fresh archive reports damage: %v", d)
			}

			queries := []string{lt.Query, "NOT " + strings.Fields(lt.Query)[0]}
			for _, q := range queries {
				want := oracle(t, lines, q)
				res, err := a.Search(context.Background(), q, loggrep.SearchOpts{Workers: 3})
				if err != nil {
					t.Fatalf("query %q: %v", q, err)
				}
				if len(res.Damaged) != 0 {
					t.Fatalf("query %q: damage on a pristine archive: %v", q, res.Damaged)
				}
				if len(res.Lines) != len(want) {
					t.Fatalf("query %q: %d matches, oracle says %d", q, len(res.Lines), len(want))
				}
				for i := range want {
					if res.Lines[i] != want[i] {
						t.Fatalf("query %q: match %d is line %d, oracle says %d", q, i, res.Lines[i], want[i])
					}
					if res.Entries[i] != lines[want[i]] {
						t.Fatalf("query %q: entry %d text differs from raw line", q, i)
					}
				}
			}

			got, err := a.ReconstructAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(lines) {
				t.Fatalf("reconstructed %d lines, want %d", len(got), len(lines))
			}
			for i := range lines {
				if got[i] != lines[i] {
					t.Fatalf("reconstructed line %d differs", i)
				}
			}
		})
	}
}

// TestArchiveIndexOracle is the golden claim for the block-skipping
// index: the same archive queried with its index and with its index tail
// cut off at the terminator (what a reader finds in an archive from a
// writer that predates the index), and the same stream as one bare box,
// must return identical results for every query, all equal to a plain
// grep over the raw stream. The index may only skip work, never change
// answers.
func TestArchiveIndexOracle(t *testing.T) {
	for _, name := range []string{"A", "G", "L"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			lt, ok := loggen.ByName(name)
			if !ok {
				t.Fatalf("log %s missing", name)
			}
			stream := lt.Block(11, 4000)
			lines := logparse.SplitLines(stream)

			opts := loggrep.DefaultArchiveOptions()
			opts.BlockBytes = 32 << 10
			opts.Workers = 4
			indexed, err := loggrep.CompressArchive(stream, opts)
			if err != nil {
				t.Fatal(err)
			}
			tailOff, _, err := archive.IndexSectionRange(indexed)
			if err != nil || tailOff < 0 || tailOff >= len(indexed) {
				t.Fatalf("index tail at %d of %d bytes: %v", tailOff, len(indexed), err)
			}

			ai, err := loggrep.OpenArchive(indexed)
			if err != nil {
				t.Fatal(err)
			}
			if !ai.HasIndex() {
				t.Fatal("default archive carries no index")
			}
			ac, err := loggrep.OpenArchive(indexed[:tailOff])
			if err != nil {
				t.Fatal(err)
			}
			if ac.HasIndex() || len(ac.Damage()) != 0 {
				t.Fatalf("tail-cut archive: index %v, damage %v; want neither", ac.HasIndex(), ac.Damage())
			}
			ab, err := loggrep.OpenArchive(loggrep.Compress(stream, loggrep.DefaultOptions()))
			if err != nil {
				t.Fatal(err)
			}

			// Sample real tokens out of the stream so the queries hit the
			// postings (textual keywords) and the blooms (values, ids).
			queries := []string{
				lt.Query,
				"NOT " + strings.Fields(lt.Query)[0],
				"zzz_absent_zzz",
			}
			for _, li := range []int{3, len(lines) / 2, len(lines) - 7} {
				for _, tok := range strings.Fields(lines[li]) {
					if len(tok) >= 4 && !strings.ContainsAny(tok, "()\"*?") {
						queries = append(queries, tok)
						break
					}
				}
			}
			queries = append(queries,
				queries[3]+" AND "+strings.Fields(lt.Query)[0],
				queries[4]+" OR zzz_absent_zzz",
				queries[3]+" NOT zzz_absent_zzz",
			)

			// One trace for every query of the indexed archive: its block
			// totals add up across them.
			skips := loggrep.NewTrace("archive-query")
			for _, q := range queries {
				want := oracle(t, lines, q)
				for which, a := range map[string]*loggrep.Archive{"indexed": ai, "index tail cut": ac, "bare box": ab} {
					opts := loggrep.SearchOpts{Workers: 3}
					if a == ai {
						opts.Trace = skips
					}
					res, err := a.Search(context.Background(), q, opts)
					if err != nil {
						t.Fatalf("%s: query %q: %v", which, q, err)
					}
					if len(res.Damaged) != 0 {
						t.Fatalf("%s: query %q: damage on a pristine archive: %v", which, q, res.Damaged)
					}
					if len(res.Lines) != len(want) {
						t.Fatalf("%s: query %q: %d matches, oracle says %d", which, q, len(res.Lines), len(want))
					}
					for i := range want {
						if res.Lines[i] != want[i] {
							t.Fatalf("%s: query %q: match %d is line %d, oracle says %d", which, q, i, res.Lines[i], want[i])
						}
						if res.Entries[i] != lines[want[i]] {
							t.Fatalf("%s: query %q: entry %d text differs from raw line", which, q, i)
						}
					}
				}
			}

			// The indexed archive must actually have skipped work on the
			// absent keyword — otherwise this test proves only half its
			// name.
			skipped := int64(0)
			for _, at := range skips.Data().Attrs {
				if at.Key == "blocks_skipped_postings" || at.Key == "blocks_skipped_blooms" {
					skipped += at.Val
				}
			}
			if skipped == 0 {
				t.Fatalf("index never skipped a block across %d queries", len(queries))
			}
		})
	}
}
