package archive

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"loggrep/internal/core"
	"loggrep/internal/faultinject"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// buildTestArchive compresses a multi-block stream and opens it.
func buildTestArchive(t *testing.T, gen string, blockBytes, lines int) (*Archive, []string) {
	t.Helper()
	lt, _ := loggen.ByName(gen)
	stream := lt.Block(7, lines)
	data, err := Compress(stream, testOptions(blockBytes))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	return a, logparse.SplitLines(stream)
}

// TestArchiveStalledQueryCancelledWithinDeadline is the tentpole
// acceptance criterion: with every block read stalled far beyond the
// deadline, Search returns context.DeadlineExceeded within 2x the
// deadline — and, crucially, the interrupted blocks are NOT quarantined:
// the same archive answers the same query completely once the stall is
// removed.
func TestArchiveStalledQueryCancelledWithinDeadline(t *testing.T) {
	a, lines := buildTestArchive(t, "A", 25_000, 2500)
	if a.NumBlocks() < 2 {
		t.Fatalf("want a multi-block archive, got %d blocks", a.NumBlocks())
	}
	a.SetReadHook(faultinject.SlowRead(30 * time.Second))

	const deadline = 250 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := a.Search(ctx, "ERROR", core.SearchOpts{Workers: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled archive query returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("stalled archive query took %v, want <= %v (2x deadline)", elapsed, 2*deadline)
	}

	// No latched damage: remove the stall and the full answer comes back.
	a.SetReadHook(nil)
	res, err := a.Search(context.Background(), "ERROR", core.SearchOpts{})
	if err != nil {
		t.Fatalf("query after clearing stall: %v", err)
	}
	if len(res.Damaged) > 0 {
		t.Fatalf("cancelled blocks were quarantined as damage: %v", res.Damaged)
	}
	want := oracle(t, lines, "ERROR")
	if len(res.Lines) != len(want) {
		t.Fatalf("post-stall query found %d matches, want %d", len(res.Lines), len(want))
	}
}

// TestArchiveBudgetPartial caps an archive query's decompressions and
// checks the Partial contract end to end: the flag set, the reason named,
// the matches a strict subset-or-equal of the oracle, no wrong entries.
func TestArchiveBudgetPartial(t *testing.T) {
	a, lines := buildTestArchive(t, "G", 20_000, 2500)
	full, err := a.Search(context.Background(), "ERROR", core.SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, lines, "ERROR")
	if len(full.Lines) != len(want) {
		t.Fatalf("unbudgeted query found %d matches, oracle %d", len(full.Lines), len(want))
	}

	// A fresh archive, so payload caches are cold and the cap bites. The
	// block-skipping index is dropped: it can prove most blocks
	// matchless and finish the query inside any budget, and this test is
	// about the budget contract on the full-scan path.
	a2, _ := buildTestArchive(t, "G", 20_000, 2500)
	a2.index = nil
	res, err := a2.Search(context.Background(), "ERROR", core.SearchOpts{Workers: 2, Budget: core.NewBudgetState(core.Budget{MaxDecompressions: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("2-decompression budget over %d blocks did not produce a partial result", a2.NumBlocks())
	}
	if res.PartialReason == "" {
		t.Fatal("Partial result without a reason")
	}
	oracleSet := make(map[int]bool, len(want))
	for _, l := range want {
		oracleSet[l] = true
	}
	for i, line := range res.Lines {
		if !oracleSet[line] {
			t.Fatalf("partial result line %d not in oracle", line)
		}
		if res.Entries[i] != lines[line] {
			t.Fatalf("partial result entry %d corrupted", line)
		}
	}
	if len(res.Lines) > len(want) {
		t.Fatalf("partial result has more matches (%d) than the oracle (%d)", len(res.Lines), len(want))
	}
}

// TestArchiveQueryPreCancelled: cancellation observed before any block
// work returns immediately with the context error.
func TestArchiveQueryPreCancelled(t *testing.T) {
	a, _ := buildTestArchive(t, "A", 25_000, 1500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Search(ctx, "ERROR", core.SearchOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestArchivePartialReasonRule: a spent budget names a partial result's
// reason over a damaged block, whether the damaged block comes before the
// budget runs out or after it, at one worker and at eight; a damaged block
// searched before the cut is still reported.
func TestArchivePartialReasonRule(t *testing.T) {
	lt, _ := loggen.ByName("G")
	data, err := Compress(lt.Block(7, 2500), testOptions(20_000))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	last := len(frames) - 2 // the terminator closes the list
	for _, damaged := range []int{0, last} {
		bad := bytes.Clone(data)
		bad[frames[damaged].PayloadOff+frames[damaged].PayloadLen/2] ^= 0x40
		for _, workers := range []int{1, 8} {
			a, err := Open(bad)
			if err != nil {
				t.Fatal(err)
			}
			a.index = nil
			res, err := a.Search(context.Background(), "ERROR", core.SearchOpts{Workers: workers, Budget: core.NewBudgetState(core.Budget{MaxDecompressions: 2})})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial || !strings.Contains(res.PartialReason, "budget") {
				t.Fatalf("block %d damaged, workers %d: partial=%v %q, want the budget named", damaged, workers, res.Partial, res.PartialReason)
			}
			if damaged == 0 && workers == 1 && (len(res.Damaged) != 1 || res.Damaged[0].FirstLine != 0) {
				t.Fatalf("workers 1: damage %v, want block 0 reported", res.Damaged)
			}
		}
	}
}
