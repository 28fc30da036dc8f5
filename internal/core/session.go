package core

import (
	"context"
	"fmt"
	"strings"
)

// Session is the paper's refining mode (§6): an engineer narrows an
// incident down clause by clause, and the Query Cache makes earlier steps
// free to revisit. A Session tracks the clause stack and executes the
// conjunction of everything refined so far.
type Session struct {
	st      *Store
	clauses []string
}

// NewSession starts a refining session over a store.
func (st *Store) NewSession() *Session { return &Session{st: st} }

// Refine pushes one more clause (a search string or a parenthesizable
// sub-expression) and runs the conjunction of all clauses so far.
func (s *Session) Refine(clause string) (*Result, error) {
	clause = strings.TrimSpace(clause)
	if clause == "" {
		return nil, fmt.Errorf("core: empty clause")
	}
	s.clauses = append(s.clauses, clause)
	res, err := s.st.Search(context.Background(), s.Command(), SearchOpts{})
	if err != nil {
		s.clauses = s.clauses[:len(s.clauses)-1]
		return nil, err
	}
	return res, nil
}

// Back pops the most recent clause and re-runs the remaining conjunction
// (a cache hit when the prefix was executed before). With no clauses left
// it returns nil without error.
func (s *Session) Back() (*Result, error) {
	if len(s.clauses) == 0 {
		return nil, nil
	}
	s.clauses = s.clauses[:len(s.clauses)-1]
	if len(s.clauses) == 0 {
		return nil, nil
	}
	return s.st.Search(context.Background(), s.Command(), SearchOpts{})
}

// Command renders the current conjunction.
func (s *Session) Command() string {
	parts := make([]string, len(s.clauses))
	for i, c := range s.clauses {
		if needsParens(c) {
			parts[i] = "(" + c + ")"
		} else {
			parts[i] = c
		}
	}
	return strings.Join(parts, " AND ")
}

// Depth returns how many clauses the session holds.
func (s *Session) Depth() int { return len(s.clauses) }

// needsParens reports whether a clause contains operators that must be
// grouped before AND-joining with the rest of the session.
func needsParens(clause string) bool {
	for _, f := range strings.Fields(clause) {
		switch strings.ToUpper(f) {
		case "AND", "OR", "NOT":
			return true
		}
	}
	return false
}
