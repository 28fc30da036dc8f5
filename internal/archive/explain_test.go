package archive

import (
	"context"
	"strings"
	"testing"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
)

// TestExplainFollowsSearchFunnel is the archive-level companion of core's
// TestExplainFollowsNarrowing: Explain and Search decide every block through
// the same admit, so over several log types and commands — the type's
// Table-1 query, one of its keywords alone, its negation, an absent needle —
// an explanation's block counts equal the traced query's attributes.
func TestExplainFollowsSearchFunnel(t *testing.T) {
	for _, name := range []string{"A", "G", "L", "Hdfs"} {
		lt, ok := loggen.ByName(name)
		if !ok {
			t.Fatalf("no log type %s", name)
		}
		data, err := Compress(lt.Block(13, 6000), testOptions(48_000))
		if err != nil {
			t.Fatal(err)
		}
		a, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumBlocks() < 4 {
			t.Fatalf("type %s: %d blocks, want several", name, a.NumBlocks())
		}
		first := strings.Fields(lt.Query)[0]
		skipped := int64(0)
		for _, cmd := range []string{lt.Query, first, "NOT " + first, "zzz_absent_7q8w9e", first + " OR zzz_absent_7q8w9e"} {
			ex, err := a.Explain(cmd)
			if err != nil {
				t.Fatalf("type %s: Explain(%q): %v", name, cmd, err)
			}
			tr := obsv.NewTrace("archive-query")
			if _, err := a.Search(context.Background(), cmd, core.SearchOpts{Trace: tr}); err != nil {
				t.Fatalf("type %s: Search(%q): %v", name, cmd, err)
			}
			got := [4]int64{int64(ex.BlocksSearched), int64(ex.BlocksSkipped), int64(ex.BlocksSkippedPostings), int64(ex.BlocksSkippedBlooms)}
			want := [4]int64{attr(tr, "blocks_searched"), attr(tr, "blocks_skipped"), attr(tr, "blocks_skipped_postings"), attr(tr, "blocks_skipped_blooms")}
			if got != want || got[0]+got[1]+got[2]+got[3] != int64(a.NumBlocks()) {
				t.Errorf("type %s %q: explain searched/stamp/postings/blooms = %v, the query's trace says %v (%d blocks)",
					name, cmd, got, want, a.NumBlocks())
			}
			skipped += got[1] + got[2] + got[3]
		}
		if skipped == 0 {
			t.Errorf("type %s: no command skipped a block; the comparison proves nothing", name)
		}
	}
}
