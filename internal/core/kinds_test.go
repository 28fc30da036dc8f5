package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/ingest"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
)

// searcher is the one query method every source kind has.
type searcher interface {
	Search(ctx context.Context, command string, o core.SearchOpts) (*core.Result, error)
}

// sourceKinds serves one block as each kind of source a query can meet: a
// bare CapsuleBox opened as an archive, a multi-block archive, a stream
// whose three segments are all sealed, and a stream of two sealed segments
// and a raw tail.
func sourceKinds(t *testing.T, block []byte, lines []string) map[string]searcher {
	t.Helper()
	box, err := archive.Open(core.Compress(block, core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	aopts := archive.DefaultOptions()
	aopts.BlockBytes = len(block) / 5
	data, err := archive.Compress(block, aopts)
	if err != nil {
		t.Fatal(err)
	}
	arc, err := archive.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if arc.NumBlocks() < 4 {
		t.Fatalf("archive has %d blocks, want several", arc.NumBlocks())
	}
	m, _, err := ingest.Open(ingest.Config{Dir: t.TempDir(), SealBytes: 1 << 30, SealAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	for stream, sealed := range map[string]int{"sealed": 3, "half": 2} {
		for seg := 0; seg < 3; seg++ {
			if err := m.Append("t", stream, lines[seg*len(lines)/3:(seg+1)*len(lines)/3]); err != nil {
				t.Fatal(err)
			}
			if seg < sealed {
				if err := m.TriggerSeal(context.Background(), "t", stream); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, info := range m.Snapshot() {
		if want := map[string]int{"sealed": 3, "half": 2}[info.Stream]; info.SealedSegs != want || (info.RawBytes == 0) != (want == 3) {
			t.Fatalf("stream %s: %d sealed segments, %d raw bytes", info.Stream, info.SealedSegs, info.RawBytes)
		}
	}
	return map[string]searcher{
		"bare box":            box,
		"multi-block archive": arc,
		"sealed stream":       m.Lookup("t/sealed"),
		"half-sealed stream":  m.Lookup("t/half"),
	}
}

// TestSourceKindsAgree states the query contract once for every kind of
// source: over several log types, their Table-1 command and random
// AND/OR/NOT/wildcard trees, each source kind answers
//
//   - cancelled: context.Canceled;
//   - under a tight budget: a subset of the truth, flagged Partial unless
//     complete;
//   - metered and traced: the meter's decompressions are the Result's, its
//     scanned bytes the sum of the trace spans' bytes_scanned, and its
//     blocks searched plus skipped its blocks total, the trace's "blocks"
//     (summed over a stream's sealed segments; none for a bare box);
//   - CountOnly: the number of matching lines and no Lines or Entries;
//   - plain: exactly what RawQuery finds in the raw block, byte for byte;
//   - traced: the same, the trace's matches total agreeing, every block of
//     every segment accounted for, and a raw_tail span iff there is a tail
//     (a bare box has no blocks to account for: its trace is a Store's).
//
// It replaces nothing layer-specific — frame damage, storage faults and
// crashes keep their own suites — but a new source kind, or a new option,
// proves itself here.
func TestSourceKindsAgree(t *testing.T) {
	trees := 10
	if testing.Short() {
		trees = 3
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for ti, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		block := lt.Block(int64(40+ti), 1500)
		lines := logparse.SplitLines(block)
		rng := rand.New(rand.NewSource(int64(70 + ti)))
		cmds := []string{lt.Query}
		for i := 0; i < trees; i++ {
			cmds = append(cmds, core.RandomTree(rng, lines, 1+rng.Intn(3)))
		}
		for kind, src := range sourceKinds(t, block, lines) {
			cut := 0
			for ci, cmd := range cmds {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("type %s, %s, %q: %s", name, kind, cmd, fmt.Sprintf(format, args...))
				}
				wantLines, wantEntries, err := core.RawQuery(block, cmd)
				if err != nil {
					t.Fatal(err)
				}

				if _, err := src.Search(cancelled, cmd, core.SearchOpts{}); !errors.Is(err, context.Canceled) {
					fail("cancelled query: %v, want context.Canceled", err)
				}

				budget := core.Budget{MaxDecompressions: 1}
				if ci%2 == 1 {
					budget = core.Budget{MaxScannedBytes: 64}
				}
				res, err := src.Search(context.Background(), cmd, core.SearchOpts{Budget: core.NewBudgetState(budget)})
				if err != nil {
					fail("budget %+v: %v", budget, err)
				}
				for i, line := range res.Lines {
					if _, ok := slices.BinarySearch(wantLines, line); !ok || res.Entries[i] != lines[line] {
						fail("budget %+v: line %d is not a match of the raw block", budget, line)
					}
				}
				if res.Matches != len(res.Lines) || res.Partial != (res.PartialReason != "") ||
					(!res.Partial && len(res.Lines) != len(wantLines)) {
					fail("budget %+v: %d matches, %d lines of %d, partial=%v (%q)",
						budget, res.Matches, len(res.Lines), len(wantLines), res.Partial, res.PartialReason)
				}
				if res.Partial {
					cut++
				}

				meter, mtr := core.NewBudgetState(core.Budget{}), obsv.NewTrace("query")
				res, err = src.Search(context.Background(), cmd, core.SearchOpts{Budget: meter, Trace: mtr})
				if err != nil || res.Partial || res.Matches != len(wantLines) {
					fail("metered: %+v, %v; want %d matches", res, err, len(wantLines))
				}
				md := mtr.Data()
				if meter.Decompressions() != int64(res.Decompressions) || meter.ScannedBytes() != spanSum(md, "bytes_scanned") {
					fail("meter says %d decompressions and %d bytes scanned; the result says %d, the trace's spans %d",
						meter.Decompressions(), meter.ScannedBytes(), res.Decompressions, spanSum(md, "bytes_scanned"))
				}
				if total, searched, skipped := meter.Blocks(); total != attr(md, "blocks") || searched+skipped != total {
					fail("meter blocks %d searched + %d skipped of %d; the trace has %d", searched, skipped, total, attr(md, "blocks"))
				}

				res, err = src.Search(context.Background(), cmd, core.SearchOpts{CountOnly: true})
				if err != nil || res.Matches != len(wantLines) || res.Lines != nil || res.Entries != nil || res.Partial {
					fail("count = %+v, %v; want %d matches and no lines", res, err, len(wantLines))
				}

				res, err = src.Search(context.Background(), cmd, core.SearchOpts{})
				if err != nil {
					fail("%v", err)
				}
				if !slices.Equal(res.Lines, wantLines) || !slices.Equal(res.Entries, wantEntries) ||
					res.Matches != len(wantLines) || res.Partial || len(res.Damaged) != 0 {
					fail("%d matches %v (partial=%v, damaged=%v), raw grep finds %d: %v",
						res.Matches, res.Lines, res.Partial, res.Damaged, len(wantLines), wantLines)
				}

				tr := obsv.NewTrace("query")
				traced, err := src.Search(context.Background(), cmd, core.SearchOpts{Trace: tr})
				if err != nil {
					fail("traced: %v", err)
				}
				d := tr.Data()
				if !slices.Equal(traced.Lines, res.Lines) || !slices.Equal(traced.Entries, res.Entries) ||
					attr(d, "matches") != int64(len(wantLines)) {
					fail("traced: %d matches, trace says %d, untraced %d", len(traced.Lines), attr(d, "matches"), len(res.Lines))
				}
				rawTail := slices.ContainsFunc(d.Spans, func(sp obsv.Span) bool { return sp.Name == "raw_tail" })
				decided := attr(d, "blocks_searched") + attr(d, "blocks_skipped") + attr(d, "blocks_skipped_postings") + attr(d, "blocks_skipped_blooms")
				if kind == "bare box" {
					// One block, nothing to decide: the trace is its Store's.
					if d.Name != "query" || attr(d, "lines") != int64(len(lines)) || attr(d, "blocks") != 0 {
						fail("bare box trace is not a Store's:\n%s", tr.Outline())
					}
				} else if rawTail != (kind == "half-sealed stream") || attr(d, "blocks") == 0 || decided != attr(d, "blocks") {
					fail("trace shape: raw_tail span %v, %d of %d blocks decided:\n%s", rawTail, decided, attr(d, "blocks"), tr.Outline())
				}
			}
			if cut == 0 {
				t.Errorf("type %s, %s: no budget ever cut a query; the subset check proved nothing", name, kind)
			}
		}
	}
}

// attr reads one trace-level counter.
func attr(d obsv.TraceData, key string) int64 {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// spanSum adds one counter over a trace's spans.
func spanSum(d obsv.TraceData, key string) int64 {
	n := int64(0)
	for _, sp := range d.Spans {
		for _, a := range sp.Attrs {
			if a.Key == key {
				n += a.Val
			}
		}
	}
	return n
}
