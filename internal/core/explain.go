package core

import (
	"fmt"
	"strings"

	"loggrep/internal/bitset"
	"loggrep/internal/query"
)

// Explain describes how a query command would execute: per search string
// and per static-pattern group, how many rows survive each fragment's
// runtime-pattern filtering, and how much work the Capsule stamps avoided.
// It is the observability companion to §5 of the paper — the numbers show
// the Locator's filtering funnel directly.
type Explain struct {
	Command  string
	NumLines int
	Searches []SearchExplain
	// Decompressions is how many Capsule payloads the explanation itself
	// had to decompress (the same Capsules a real query would touch).
	Decompressions int
	// StampPrunes counts Capsule scans the stamps eliminated.
	StampPrunes int
	// Blocks/BlocksSearched/BlocksSkipped/BlocksDamaged describe archive-
	// level aggregation (all zero when explaining a single box): how many
	// blocks exist, how many the per-block stamps let through, how many
	// they eliminated without opening, and how many were unreadable.
	Blocks         int
	BlocksSearched int
	BlocksSkipped  int
	BlocksDamaged  int
	// The block-skipping index funnel, consulted before stamps:
	// BlocksSkippedPostings were eliminated by the archive's token
	// postings, BlocksSkippedBlooms by per-block gram bloom filters.
	// IndexState says how the index participated: "postings+blooms",
	// "postings", "blooms", "not-filterable" (index present, query has no
	// indexable fragment), "absent" (no usable index), or "disabled".
	// Empty when explaining a single box.
	BlocksSkippedPostings int
	BlocksSkippedBlooms   int
	IndexState            string
}

// explainRec is the recorder Store.Explain attaches to the filter phase:
// ex.Searches[i] describes the command's i-th search string, leaves[i]. A
// nil recorder (every ordinary query) records nothing, and so do the nil
// recorders it hands out.
type explainRec struct {
	ex      *Explain
	leaves  []*query.Search
	planned int // search strings numbered so far
}

// SearchExplain is the funnel of one search string.
type SearchExplain struct {
	Phrase    string
	Fragments []string
	// Order is the string's place in the filter's evaluation order, from
	// 1; 0 means the filter never evaluates it because it sits under a NOT
	// (NOT operands are checked on the reconstructed text).
	Order int
	// Groups holds the groups the string was evaluated in — all of them
	// for the first conjunct, only those an earlier AND operand left
	// candidates in for a later one, none when that left nothing.
	Groups     []GroupExplain
	Candidates int // total candidate lines across groups and outliers
}

// GroupExplain is one group's contribution.
type GroupExplain struct {
	Template string
	Rows     int
	// Seed is how many of the group's rows the string started from: Rows,
	// or the survivors of the AND operands evaluated before it.
	Seed int
	// AfterFragment[i] is how many of the seed rows remain candidates
	// after intersecting fragments [0..i] (sorted longest-first, the
	// execution order).
	AfterFragment []int
}

// Explain analyzes a command without producing result entries. It runs the
// filter phase a Search would — the same evaluation order, the same
// narrowing, the same caches warmed — with a recorder attached, and skips
// verification and reconstruction.
func (st *Store) Explain(command string) (*Explain, error) {
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	d0 := st.box.Decompressions
	st.en.pruned = 0
	ex := &Explain{Command: command, NumLines: st.NumLines()}
	rec := &explainRec{ex: ex, leaves: query.Searches(expr)}
	for _, s := range rec.leaves {
		ex.Searches = append(ex.Searches, SearchExplain{Phrase: s.Raw})
	}
	rec.plan(expr)
	st.ex = rec
	_, err = st.overApprox(expr, nil)
	st.ex = nil
	if err != nil {
		return nil, err
	}
	ex.Decompressions = st.box.Decompressions - d0
	ex.StampPrunes = st.en.pruned
	return ex, nil
}

// plan numbers the search strings in the order overApprox reaches them.
func (r *explainRec) plan(e query.Expr) {
	switch x := e.(type) {
	case *query.And:
		hi, lo := andOrder(x)
		r.plan(hi)
		r.plan(lo)
	case *query.Or:
		r.plan(x.L)
		r.plan(x.R)
	case *query.Search:
		r.planned++
		se := r.search(x)
		se.Order, se.Fragments = r.planned, fragmentOrder(x)
	}
}

// search returns the record of one search string.
func (r *explainRec) search(s *query.Search) *SearchExplain {
	if r == nil {
		return nil
	}
	for i, leaf := range r.leaves {
		if leaf == s {
			return &r.ex.Searches[i]
		}
	}
	panic("core: explained search is not a leaf of the command")
}

// group starts recording one entered group, seeded with cand.
func (se *SearchExplain) group(g *qGroup, cand *bitset.Set) *GroupExplain {
	if se == nil {
		return nil
	}
	se.Groups = append(se.Groups, GroupExplain{Template: templateString(g), Rows: g.n, Seed: cand.Count()})
	return &se.Groups[len(se.Groups)-1]
}

// after records the candidates left once one more fragment is intersected.
func (ge *GroupExplain) after(cand *bitset.Set) {
	if ge != nil {
		ge.AfterFragment = append(ge.AfterFragment, cand.Count())
	}
}

// add counts the candidates one group, or the outlier capsule, ended with.
func (se *SearchExplain) add(cand *bitset.Set) {
	if se != nil {
		se.Candidates += cand.Count()
	}
}

// String renders the funnel, eliding groups nothing survived in.
func (ex *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain %q over %d lines\n", ex.Command, ex.NumLines)
	if ex.Blocks > 0 {
		fmt.Fprintf(&b, "archive: %d blocks (%d searched, %d skipped by block stamps", ex.Blocks, ex.BlocksSearched, ex.BlocksSkipped)
		if ex.BlocksSkippedPostings > 0 || ex.BlocksSkippedBlooms > 0 {
			fmt.Fprintf(&b, ", %d by postings, %d by blooms", ex.BlocksSkippedPostings, ex.BlocksSkippedBlooms)
		}
		if ex.BlocksDamaged > 0 {
			fmt.Fprintf(&b, ", %d damaged", ex.BlocksDamaged)
		}
		b.WriteString(")\n")
		if ex.IndexState != "" {
			fmt.Fprintf(&b, "index: %s\n", ex.IndexState)
		}
	}
	for _, se := range ex.Searches {
		if se.Order == 0 {
			fmt.Fprintf(&b, "search %q: not filtered (under a NOT, checked on the reconstructed text)\n", se.Phrase)
			continue
		}
		fmt.Fprintf(&b, "search %q (evaluated #%d; fragments, most selective first: %v)\n", se.Phrase, se.Order, se.Fragments)
		shown, seeded := 0, 0
		for _, ge := range se.Groups {
			last := ge.Seed
			if n := len(ge.AfterFragment); n > 0 {
				last = ge.AfterFragment[n-1]
			}
			seeded += ge.Seed
			if last == 0 {
				continue
			}
			shown++
			fmt.Fprintf(&b, "  group %-50.50q rows=%-7d seed=%-7d funnel=%v\n", ge.Template, ge.Rows, ge.Seed, ge.AfterFragment)
		}
		fmt.Fprintf(&b, "  -> %d candidate lines in %d groups (%d groups entered with %d rows, %d fully pruned)\n",
			se.Candidates, shown, len(se.Groups), seeded, len(se.Groups)-shown)
	}
	fmt.Fprintf(&b, "capsules decompressed: %d, scans pruned by stamps: %d\n",
		ex.Decompressions, ex.StampPrunes)
	return b.String()
}

// templateString reconstructs the display form of a group's template.
func templateString(g *qGroup) string {
	var b strings.Builder
	for _, te := range g.meta.Template {
		if te.Var >= 0 {
			b.WriteString("<*>")
		} else {
			b.WriteString(te.Lit)
		}
	}
	return b.String()
}
