package core

import (
	"context"
	"strings"
	"testing"
)

func TestExplainFunnel(t *testing.T) {
	lines := genBlock(44, 1200)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	ex, err := st.Explain("ERROR AND state:ERR#404")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Searches) != 2 {
		t.Fatalf("searches = %d", len(ex.Searches))
	}
	// Candidate counts must match what the query actually returns when the
	// leaf is exactly filterable.
	res, err := st.Search(context.Background(), "state:ERR#404", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Searches[1].Candidates; got != len(res.Lines) {
		t.Fatalf("explain candidates %d != query matches %d", got, len(res.Lines))
	}
	// The funnel must be monotone non-increasing per group.
	for _, se := range ex.Searches {
		for _, ge := range se.Groups {
			prev := ge.Rows
			for _, c := range ge.AfterFragment {
				if c > prev {
					t.Fatalf("funnel grew: %v in group %q", ge.AfterFragment, ge.Template)
				}
				prev = c
			}
		}
	}
	out := ex.String()
	for _, want := range []string{"explain", "funnel=", "candidate lines", "pruned"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if ex.StampPrunes == 0 {
		t.Fatal("no stamp prunes recorded on a mixed workload")
	}
}

func TestExplainBadQuery(t *testing.T) {
	st, _ := mustOpen(t, makeBlock("a b"), DefaultOptions())
	if _, err := st.Explain("(("); err == nil {
		t.Fatal("bad command accepted")
	}
}

// TestExplainFollowsNarrowing: Explain runs the filter a Query runs, so the
// second conjunct is shown entering only the groups the first left
// candidates in, a NOT operand is shown unfiltered, and the predicted
// decompressions are the filter phase's actual ones.
func TestExplainFollowsNarrowing(t *testing.T) {
	block := makeBlock(genBlock(44, 1200)...)
	st, _ := mustOpen(t, block, DefaultOptions())
	const cmd = "ERROR AND state:ERR#404 NOT blk_1*"
	ex, err := st.Explain(cmd)
	if err != nil {
		t.Fatal(err)
	}
	errorLeaf, stateLeaf, notLeaf := ex.Searches[0], ex.Searches[1], ex.Searches[2]
	if stateLeaf.Order != 1 || errorLeaf.Order != 2 || notLeaf.Order != 0 || len(notLeaf.Groups) != 0 {
		t.Fatalf("evaluation order: state %d, ERROR %d, NOT operand %d with %d groups",
			stateLeaf.Order, errorLeaf.Order, notLeaf.Order, len(notLeaf.Groups))
	}
	survivors := 0
	for _, ge := range stateLeaf.Groups {
		if ge.Seed != ge.Rows {
			t.Fatalf("first conjunct seeded %d of %d rows in %q", ge.Seed, ge.Rows, ge.Template)
		}
		if n := len(ge.AfterFragment); n > 0 && ge.AfterFragment[n-1] > 0 {
			survivors++
		}
	}
	if len(stateLeaf.Groups) != len(st.groups) || len(errorLeaf.Groups) != survivors || survivors == len(st.groups) {
		t.Fatalf("groups entered: first conjunct %d of %d, second %d, survivors of the first %d",
			len(stateLeaf.Groups), len(st.groups), len(errorLeaf.Groups), survivors)
	}
	if !strings.Contains(ex.String(), "not filtered") {
		t.Fatalf("render does not mark the NOT operand:\n%s", ex)
	}

	fresh, _ := mustOpen(t, block, DefaultOptions())
	_, tr, err := searchTraced(fresh, cmd)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Data().Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "filter" && a.Key == "decompressions" && int(a.Val) != ex.Decompressions {
				t.Fatalf("explain predicted %d decompressions, the filter did %d", ex.Decompressions, a.Val)
			}
		}
	}
}
