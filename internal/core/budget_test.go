package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"loggrep/internal/faultinject"
	"loggrep/internal/query"
)

// TestSearchPreCancelled: a context cancelled before the query
// starts stops it before any work, with the context's error.
func TestSearchPreCancelled(t *testing.T) {
	lines := genBlock(1, 500)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Search(ctx, "ERROR", SearchOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search on cancelled ctx = %v, want context.Canceled", err)
	}
	// The same store still answers uncancelled queries normally.
	checkQuery(t, st, lines, "ERROR")
}

// TestStalledReadCancelledWithinDeadline installs a stall far longer than
// the deadline on every payload read and asserts the query unwinds with
// DeadlineExceeded within 2× the deadline — the tentpole acceptance
// criterion at store level. The stall honors ctx, so a correct plumbing
// returns almost immediately after the deadline; only a path that drops
// the context would sit out the full stall.
func TestStalledReadCancelledWithinDeadline(t *testing.T) {
	lines := genBlock(2, 800)
	data := Compress(makeBlock(lines...), DefaultOptions())
	st, err := Open(data, QueryOptions{ReadHook: faultinject.SlowRead(30 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, qerr := st.Search(ctx, "ERROR AND state:ERR#404", SearchOpts{})
	elapsed := time.Since(start)
	if !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("stalled query returned %v, want context.DeadlineExceeded", qerr)
	}
	if elapsed > 2*deadline {
		t.Fatalf("stalled query took %v, want <= %v (2x deadline)", elapsed, 2*deadline)
	}
	// Clearing the hook heals the store: nothing latched.
	st.SetReadHook(nil)
	res, err := st.Search(context.Background(), "ERROR AND state:ERR#404", SearchOpts{})
	if err != nil {
		t.Fatalf("query after clearing hook: %v", err)
	}
	want := naiveQuery(t, lines, "ERROR AND state:ERR#404")
	if len(res.Lines) != len(want) {
		t.Fatalf("post-stall query found %d matches, want %d", len(res.Lines), len(want))
	}
}

// TestBudgetPartialNeverWrong drives queries under shrinking budgets and
// checks the partial-result contract: Partial set once any cap bites, and
// every returned match also present in the grep oracle — degraded means
// fewer matches, never wrong ones. Counts run under the same budgets: a
// partial count is at most the oracle's, a complete one equals it, and
// the exact-bitset path is charged like any other (some budget cuts it).
func TestBudgetPartialNeverWrong(t *testing.T) {
	lines := genBlock(3, 2000)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	exactCut := false
	for _, cmd := range testQueries {
		want := naiveQuery(t, lines, cmd)
		oracle := make(map[int]bool, len(want))
		for _, l := range want {
			oracle[l] = true
		}
		for _, b := range []Budget{
			{MaxDecompressions: 1},
			{MaxScannedBytes: 1},
			{MaxScannedBytes: 64 << 10},
			{MaxDecompressions: 4, MaxScannedBytes: 32 << 10},
		} {
			st.ResetCounters() // cold caches so the caps actually bite
			st.ClearCache()
			res, err := st.Search(context.Background(), cmd, SearchOpts{Budget: NewBudgetState(b)})
			if err != nil {
				t.Fatalf("budget query %q %+v: %v", cmd, b, err)
			}
			if res.Partial && res.PartialReason == "" {
				t.Fatalf("query %q: Partial without a reason", cmd)
			}
			for i, line := range res.Lines {
				if !oracle[line] {
					t.Fatalf("query %q budget %+v: line %d matched but oracle disagrees", cmd, b, line)
				}
				if res.Entries[i] != lines[line] {
					t.Fatalf("query %q budget %+v: entry %d corrupted", cmd, b, line)
				}
			}
			if !res.Partial && len(res.Lines) != len(want) {
				t.Fatalf("query %q budget %+v: complete result has %d matches, oracle %d", cmd, b, len(res.Lines), len(want))
			}

			st.ResetCounters()
			st.ClearCache()
			cnt, err := st.Search(context.Background(), cmd, SearchOpts{Budget: NewBudgetState(b), CountOnly: true})
			if err != nil {
				t.Fatalf("budget count %q %+v: %v", cmd, b, err)
			}
			n, reason := cnt.Matches, cnt.PartialReason
			if n > len(want) || (reason == "" && n != len(want)) || cnt.Partial != (reason != "") {
				t.Fatalf("count %q budget %+v: %d (partial %q), oracle %d", cmd, b, n, reason, len(want))
			}
			if reason != "" && allExactLeaves(mustParse(t, cmd)) {
				exactCut = true
			}
		}
	}
	if !exactCut {
		t.Fatal("no budget ever cut an exact-bitset count: the fast path is not being charged")
	}
}

func mustParse(t *testing.T, cmd string) query.Expr {
	t.Helper()
	e, err := query.Parse(cmd)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBudgetPartialNotCached: a partial result must not poison the Query
// Cache — the same command re-run without a budget gets the full answer.
func TestBudgetPartialNotCached(t *testing.T) {
	lines := genBlock(4, 1500)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	cmd := "ERROR AND 11.187.*.*"
	res, err := st.Search(context.Background(), cmd, SearchOpts{Budget: NewBudgetState(Budget{MaxScannedBytes: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Skip("1-byte scan budget did not bite; nothing to assert")
	}
	checkQuery(t, st, lines, cmd)
}

// TestBudgetStateShared: one BudgetState spans stores, so archive-style
// callers get a per-query cap, not a per-block one.
func TestBudgetStateShared(t *testing.T) {
	lines := genBlock(5, 1200)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	// "ERROR" hits template literals, so it costs no capsule scans — but
	// verifying candidates still decompresses payloads, which a
	// decompression cap observes.
	bs := NewBudgetState(Budget{MaxDecompressions: 1})
	if _, err := st.Search(context.Background(), "ERROR", SearchOpts{Budget: bs}); err != nil {
		t.Fatal(err)
	}
	if bs.Decompressions() == 0 {
		t.Fatal("budget state recorded no decompression work")
	}
	// The state is now exhausted; a fresh store stops immediately.
	st2, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	res, err := st2.Search(context.Background(), "ERROR", SearchOpts{Budget: bs})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("second store ignored the exhausted shared budget")
	}
	if !strings.Contains(res.PartialReason, "budget") {
		t.Fatalf("PartialReason = %q, want it to name the budget", res.PartialReason)
	}
}

// TestConcurrentQueryClearCache hammers one store from queriers, cache
// clearers, and counter resetters at once; under -race this proves the
// RWMutex split (cacheMu for the query cache, mu for scan state) actually
// covers every mutation the satellite bug report named.
func TestConcurrentQueryClearCache(t *testing.T) {
	lines := genBlock(6, 800)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	want := naiveQuery(t, lines, "ERROR")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch {
				case g == 0 && i%3 == 0:
					st.ClearCache()
				case g == 1 && i%7 == 0:
					st.ResetCounters()
				default:
					cmd := testQueries[(g*31+i)%len(testQueries)]
					if _, err := st.Search(context.Background(), cmd, SearchOpts{}); err != nil {
						t.Errorf("concurrent Query(%q): %v", cmd, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := st.Search(context.Background(), "ERROR", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != len(want) {
		t.Fatalf("after concurrent churn: %d matches, want %d", len(res.Lines), len(want))
	}
}

// TestMeterMonotonicUnderConcurrency hammers one meter from many writer
// goroutines while readers poll it, asserting no reading ever runs
// backwards — what /v1/inflight promises its pollers. Run with -race this
// doubles as the data-race check on the hot-path atomics.
func TestMeterMonotonicUnderConcurrency(t *testing.T) {
	m := NewBudgetState(Budget{})
	m.AddBlocks(64, 0, 0)
	type reading struct{ total, searched, skipped, scanned, decomp int64 }
	read := func() reading {
		total, searched, skipped := m.Blocks()
		return reading{total, searched, skipped, m.ScannedBytes(), m.Decompressions()}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m.AddBlocks(0, 1, 1)
				m.add(100, 1)
				m.SetStage(StageFilter)
			}
			m.SetStage(StageVerify)
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev reading
			for {
				s := read()
				if s.searched < prev.searched || s.skipped < prev.skipped || s.scanned < prev.scanned ||
					s.decomp < prev.decomp || s.total < prev.total {
					t.Errorf("meter ran backwards: %+v then %+v", prev, s)
					return
				}
				prev = s
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if s := read(); s.searched != 8000 || s.scanned != 800000 || s.decomp != 8000 {
		t.Fatalf("final reading %+v, want 8000 blocks / 800000 bytes / 8000 decompressions", s)
	}
	if m.Stage() != StageVerify {
		t.Fatalf("stage = %v, want verify", m.Stage())
	}
}

// TestMeterStageNeverLowers: SetStage keeps the highest stage; a late
// racing filter publish cannot drag a verifying query backwards.
func TestMeterStageNeverLowers(t *testing.T) {
	m := NewBudgetState(Budget{})
	m.SetStage(StageVerify)
	m.SetStage(StageFilter)
	if got := m.Stage().String(); got != "verify" {
		t.Fatalf("stage = %q after lowering attempt, want verify", got)
	}
	m.SetStage(StageDone)
	if got := m.Stage().String(); got != "done" {
		t.Fatalf("stage = %q, want done", got)
	}
}

// TestMeterNilSafe: every method must work on a nil receiver — the
// unmetered, unlimited query.
func TestMeterNilSafe(t *testing.T) {
	var m *BudgetState
	m.AddBlocks(5, 1, 1)
	m.add(10, 1)
	m.SetStage(StageVerify)
	if total, searched, skipped := m.Blocks(); m.ScannedBytes() != 0 || m.Decompressions() != 0 ||
		total != 0 || searched != 0 || skipped != 0 || m.Fraction() != 0 || m.Err() != nil {
		t.Fatal("nil meter reported work")
	}
	if got := m.Stage().String(); got != "queued" {
		t.Fatalf("nil meter stage = %q, want queued", got)
	}
}

// TestBudgetFraction: the tighter of the two caps wins, clamped to [0,1],
// and zero caps mean unbudgeted.
func TestBudgetFraction(t *testing.T) {
	for _, tc := range []struct {
		scan, scanCap, dec, decCap int64
		want                       float64
	}{
		{0, 0, 0, 0, 0},
		{500, 1000, 0, 0, 0.5},
		{500, 1000, 90, 100, 0.9}, // decompressions are the tighter cap
		{2000, 1000, 0, 0, 1},     // clamped
		{123, 0, 0, 0, 0},         // unbudgeted
	} {
		m := NewBudgetState(Budget{MaxScannedBytes: tc.scanCap, MaxDecompressions: tc.decCap})
		m.add(tc.scan, tc.dec)
		if got := m.Fraction(); got != tc.want {
			t.Errorf("fraction of %d/%d bytes, %d/%d decompressions = %v, want %v",
				tc.scan, tc.scanCap, tc.dec, tc.decCap, got, tc.want)
		}
	}
}
