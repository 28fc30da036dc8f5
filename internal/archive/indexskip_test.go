package archive

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"loggrep/internal/core"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
)

// indexSkipStream builds a synthetic multi-group log shaped like real
// service logs: each group of lines carries a group-unique shard tag
// (textual, postings-visible) and draws session ids from a small
// per-group pool (values repeat within a block, as production values
// do), and one group hides a unique hex trace id (blooms-visible).
// Group g occupies a contiguous run of lines, so block boundaries cut
// through at most two groups per tag.
func indexSkipStream(groups, linesPer int) ([]byte, func(g int) string) {
	tag := func(g int) string {
		return fmt.Sprintf("shard%c%c", rune('g'+g%20), rune('g'+g/20%20))
	}
	// Deterministic splitmix64; no global rand, no wall clock.
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	// Values are drawn pseudo-randomly per line from small per-group
	// pools: the draw sequence is incompressible (real frames, honest
	// overhead ratio) while the distinct-gram count stays bounded (the
	// paper's low-variety-variable observation).
	var sb strings.Builder
	line := 0
	for g := 0; g < groups; g++ {
		for i := 0; i < linesPer; i++ {
			draw := mix(uint64(line))
			fmt.Fprintf(&sb, "svc worker heartbeat ok %s sess %016x seq %05d\n",
				tag(g), mix(uint64(g)<<32|draw%100), draw>>32%100)
			line++
		}
		if g == 7 {
			sb.WriteString("svc worker trace 9f8e7d6c5b4a3921 committed\n")
		}
	}
	return []byte(sb.String()), tag
}

// TestIndexSkipRate is the regression floor for the block-skipping
// index: on a selective query over a multi-block archive, at least 90%
// of blocks must be skipped before any capsule decompression, and the
// index sections must cost at most 5% of the archive. Both numbers are
// recorded as bench metrics (logbench -exp index); this test is the
// tripwire that fails the suite rather than the bench dashboard.
func TestIndexSkipRate(t *testing.T) {
	const groups, linesPer = 32, 4000
	stream, tag := indexSkipStream(groups, linesPer)
	lines := logparse.SplitLines(stream)
	opts := testOptions(len(stream) / groups) // ~one group per block
	data, err := Compress(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() < 30 {
		t.Fatalf("only %d blocks; skip-rate floor needs a real multi-block archive", a.NumBlocks())
	}
	if !a.HasIndex() {
		t.Fatal("archive has no index")
	}

	// Storage overhead: index bytes over file bytes.
	st := a.IndexStats()
	if st.Damaged != 0 {
		t.Fatalf("fresh index reports damage: %+v", st)
	}
	overhead := float64(st.TotalBytes()) / float64(len(data))
	t.Logf("index overhead: %d of %d bytes (%.2f%%), %d blocks, %d tokens",
		st.TotalBytes(), len(data), 100*overhead, st.Blocks, st.Tokens)
	if overhead > 0.05 {
		t.Fatalf("index overhead %.2f%% exceeds the 5%% budget", 100*overhead)
	}

	skipRate := func(q string, wantMatches int) float64 {
		t.Helper()
		tr := obsv.NewTrace("archive-query")
		res, err := a.Search(context.Background(), q, core.SearchOpts{Workers: 3, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Lines) != wantMatches {
			t.Fatalf("query %q: %d matches, want %d", q, len(res.Lines), wantMatches)
		}
		for i, l := range res.Lines {
			if res.Entries[i] != lines[l] {
				t.Fatalf("query %q: entry %d differs from raw line %d", q, i, l)
			}
		}
		return float64(attr(tr, "blocks_skipped_postings")+attr(tr, "blocks_skipped_blooms")) / float64(a.NumBlocks())
	}

	// Postings selectivity: a group-unique textual tag.
	if r := skipRate(tag(17), linesPer); r < 0.9 {
		t.Fatalf("postings skip rate %.2f for a single-group tag, want >= 0.9", r)
	}
	// Bloom selectivity: a hex id the postings cannot hold (it
	// normalizes to a volatile shape) planted in exactly one group.
	if r := skipRate("9f8e7d6c5b4a3921", 1); r < 0.9 {
		t.Fatalf("bloom skip rate %.2f for a unique trace id, want >= 0.9", r)
	}
	// Absent keyword: everything skippable.
	if r := skipRate("zzz_absent_zzz", 0); r < 0.9 {
		t.Fatalf("skip rate %.2f for an absent keyword, want >= 0.9", r)
	}
}
