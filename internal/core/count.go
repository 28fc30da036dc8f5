package core

import (
	"strings"

	"loggrep/internal/query"
)

// allExactLeaves reports whether the expression only contains search
// strings whose filter result is exact: one keyword, no wildcards, and the
// keyword is the entire phrase (no cross-token adjacency to verify). Such a
// keyword matches an entry iff it occurs as a substring, which is exactly
// what the runtime-pattern matching computes, so the filter bitsets are not
// supersets but the precise answer and a CountOnly Search combines them
// without reconstructing an entry.
func allExactLeaves(e query.Expr) bool {
	switch x := e.(type) {
	case *query.And:
		return allExactLeaves(x.L) && allExactLeaves(x.R)
	case *query.Or:
		return allExactLeaves(x.L) && allExactLeaves(x.R)
	case *query.Not:
		return allExactLeaves(x.X)
	case *query.Search:
		return len(x.Keywords) == 1 &&
			x.Keywords[0] == x.Raw &&
			!strings.Contains(x.Raw, "*")
	}
	return false
}

// exactEval evaluates an all-exact expression purely on filter sets,
// restricted to within like overApprox (whose narrowing it shares: the sets
// being exact, result = M(e) ∩ within). NOT complements soundly because the
// leaf sets are exact — but only a set computed over all rows, so a NOT's
// operand is evaluated unrestricted and the complement cut to within after.
func (st *Store) exactEval(e query.Expr, within *rowSets) (*rowSets, error) {
	switch x := e.(type) {
	case *query.And:
		hi, lo := andOrder(x)
		l, err := st.exactEval(hi, within)
		if err != nil || !l.any() {
			return l, err
		}
		return st.exactEval(lo, l)
	case *query.Or:
		l, err := st.exactEval(x.L, within)
		if err != nil {
			return nil, err
		}
		r, err := st.exactEval(x.R, within)
		if err != nil {
			return nil, err
		}
		return l.or(r), nil
	case *query.Not:
		s, err := st.exactEval(x.X, nil)
		if err != nil {
			return nil, err
		}
		return st.rowsOf(within).andNot(s), nil
	case *query.Search:
		return st.searchCandidates(x, within)
	}
	return st.noRows(), nil
}

// RawQuery runs a command over an uncompressed block with the same exact
// semantics as Search — the first-phase path for blocks that have not been
// compressed yet (§2 of the paper).
func RawQuery(block []byte, command string) ([]int, []string, error) {
	expr, err := query.Parse(command)
	if err != nil {
		return nil, nil, err
	}
	lines := splitLinesView(block)
	var outLines []int
	var outEntries []string
	for i, l := range lines {
		if expr.Match(l) {
			outLines = append(outLines, i)
			outEntries = append(outEntries, l)
		}
	}
	return outLines, outEntries, nil
}

// splitLinesView splits without copying each line's bytes twice.
func splitLinesView(block []byte) []string {
	if len(block) == 0 {
		return nil
	}
	s := string(block)
	if s[len(s)-1] == '\n' {
		s = s[:len(s)-1]
	}
	return strings.Split(s, "\n")
}
